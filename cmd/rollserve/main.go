// Command rollserve serves a rollingjoin database over HTTP — commits,
// ad-hoc queries, point-in-time materialization, view-delta subscriptions
// — and replicates it: a leader ships its write-ahead log to followers,
// which replay it locally and maintain their own views against the
// leader's commit sequence.
//
// Leader:
//
//	rollserve -addr :7070 -wal leader.wal -sync -init schema.sql
//
// Follower (read replica of the leader above):
//
//	rollserve -addr :7071 -leader http://127.0.0.1:7070 -init schema.sql
//
// DDL is local: leader and followers run the same -init script (tables
// and view definitions); only committed data travels on the wire.
//
// -smoke runs an in-process leader + workload + follower over real TCP
// sockets, kills the leader mid-ship, restarts it, and verifies the
// follower converges to the leader's recomputed view — the CI
// replication check.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	rollingjoin "repro"
	"repro/internal/repl"
	"repro/internal/sql"
	"repro/internal/tuple"
)

func main() {
	var (
		addr   = flag.String("addr", "127.0.0.1:7070", "HTTP listen address")
		leader = flag.String("leader", "", "leader base URL; non-empty opens a follower replica")
		wal    = flag.String("wal", "", "WAL file path (empty: in-memory)")
		sync   = flag.Bool("sync", false, "fsync the WAL inside every commit")
		init   = flag.String("init", "", "SQL script executed at startup (DDL on followers)")
		smoke  = flag.Bool("smoke", false, "run the in-process replication smoke check and exit")
	)
	flag.Parse()
	if *smoke {
		if err := runSmoke(); err != nil {
			fmt.Fprintln(os.Stderr, "rollserve smoke: FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("rollserve smoke: PASS")
		return
	}
	if err := run(*addr, *leader, *wal, *sync, *init); err != nil {
		fmt.Fprintln(os.Stderr, "rollserve:", err)
		os.Exit(1)
	}
}

func run(addr, leaderURL, walPath string, syncCommits bool, initScript string) error {
	db, err := rollingjoin.Open(rollingjoin.Options{
		WALPath:      walPath,
		SyncOnCommit: syncCommits,
		Follower:     leaderURL != "",
	})
	if err != nil {
		return err
	}
	defer db.Close()
	if initScript != "" {
		script, err := os.ReadFile(initScript)
		if err != nil {
			return err
		}
		if _, err := sql.NewSession(db).Exec(string(script)); err != nil {
			return fmt.Errorf("init script: %w", err)
		}
	}
	if walPath != "" && leaderURL == "" {
		// A reopened leader replays its log once the catalog exists.
		if _, err := db.Recover(); err != nil {
			return fmt.Errorf("recover: %w", err)
		}
	}

	srv := repl.NewHTTPServer(addr, repl.NewServer(db).Handler())
	var tailer *repl.Tailer
	role := "leader"
	if leaderURL != "" {
		role = "follower of " + leaderURL
		tailer = repl.NewTailer(db, leaderURL)
		tailer.Start()
		defer tailer.Stop()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("rollserve: %s listening on %s\n", role, addr)
	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(shutCtx)
	case err := <-errc:
		return err
	}
}

// --- smoke check ---

var smokeSpec = rollingjoin.ViewSpec{
	Name:   "big",
	Tables: []string{"users", "orders"},
	Joins: []rollingjoin.Join{{
		LeftTable: "users", LeftColumn: "id",
		RightTable: "orders", RightColumn: "uid",
	}},
	Filters: []rollingjoin.Filter{{
		Table: "orders", Column: "amount", Op: rollingjoin.GE, Value: rollingjoin.Int(10),
	}},
	Output: []rollingjoin.OutCol{
		{Table: "users", Column: "name"},
		{Table: "orders", Column: "amount"},
	},
}

func smokeSchema(db *rollingjoin.DB) (*rollingjoin.View, error) {
	if err := db.CreateTable("users",
		rollingjoin.Col("id", rollingjoin.TypeInt),
		rollingjoin.Col("name", rollingjoin.TypeString),
	); err != nil {
		return nil, err
	}
	if err := db.CreateTable("orders",
		rollingjoin.Col("uid", rollingjoin.TypeInt),
		rollingjoin.Col("amount", rollingjoin.TypeInt),
	); err != nil {
		return nil, err
	}
	return db.DefineView(smokeSpec, rollingjoin.Maintain{Interval: 1})
}

func sortedEncoded(rows []rollingjoin.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = string(tuple.EncodeRow(nil, tuple.Tuple(r)))
	}
	sort.Strings(out)
	return out
}

// serveOn binds addr and serves the handler until the returned server is
// closed. addr "" picks an ephemeral port; the actual address is returned.
func serveOn(addr string, h http.Handler) (*http.Server, string, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := repl.NewHTTPServer("", h)
	go srv.Serve(lis)
	return srv, lis.Addr().String(), nil
}

func runSmoke() error {
	leader, err := rollingjoin.Open(rollingjoin.Options{})
	if err != nil {
		return err
	}
	defer leader.Close()
	lv, err := smokeSchema(leader)
	if err != nil {
		return err
	}
	handler := repl.NewServer(leader).Handler()
	srv, addr, err := serveOn("", handler)
	if err != nil {
		return err
	}

	follower, err := rollingjoin.Open(rollingjoin.Options{Follower: true})
	if err != nil {
		return err
	}
	defer follower.Close()
	fv, err := smokeSchema(follower)
	if err != nil {
		return err
	}
	tailer := repl.NewTailer(follower, "http://"+addr)
	tailer.Start()
	defer tailer.Stop()

	commit := func(i int) error {
		_, err := leader.Update(func(tx *rollingjoin.Tx) error {
			if err := tx.Insert("users", rollingjoin.Int(int64(i)), rollingjoin.Str(fmt.Sprintf("u%d", i))); err != nil {
				return err
			}
			return tx.Insert("orders", rollingjoin.Int(int64(i)), rollingjoin.Int(int64(i%30)))
		})
		return err
	}
	for i := 0; i < 100; i++ {
		if err := commit(i); err != nil {
			return err
		}
	}

	// Kill the leader's server mid-ship (active streams included), keep
	// committing through the outage, then restart on the same address: the
	// tailer must hold its consistent prefix and reconnect on its own.
	if err := srv.Close(); err != nil {
		return err
	}
	for i := 100; i < 150; i++ {
		if err := commit(i); err != nil {
			return err
		}
	}
	var srv2 *http.Server
	for tries := 0; ; tries++ {
		srv2, _, err = serveOn(addr, handler)
		if err == nil {
			break
		}
		if tries >= 100 {
			return fmt.Errorf("rebind %s: %w", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	defer srv2.Close()
	for i := 150; i < 200; i++ {
		if err := commit(i); err != nil {
			return err
		}
	}

	// Quiesce and converge: drive leader propagation through every commit
	// above, so the HWM snapshot covers the whole workload.
	target := leader.LastCSN()
	if err := lv.CatchUp(target); err != nil {
		return err
	}
	hwm := lv.HWM()
	deadline := time.Now().Add(30 * time.Second)
	for follower.AppliedCSN() < target {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower stuck at CSN %d, want %d (tailer err: %v)",
				follower.AppliedCSN(), target, tailer.Err())
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := fv.WaitForHWMContext(ctx, hwm); err != nil {
		return fmt.Errorf("follower HWM %d, want %d: %w", fv.HWM(), hwm, err)
	}

	// The follower's maintained view must equal the leader's from-scratch
	// recomputation over its base tables.
	spec := smokeSpec
	spec.Name = "recompute"
	recomputed, err := leader.Query(spec)
	if err != nil {
		return err
	}
	got, err := fv.MaterializeAt(hwm)
	if err != nil {
		return err
	}
	want := sortedEncoded(recomputed.Rows)
	have := sortedEncoded(got)
	if len(want) != len(have) {
		return fmt.Errorf("cardinality: leader recomputes %d rows, follower view has %d", len(want), len(have))
	}
	for i := range want {
		if want[i] != have[i] {
			return fmt.Errorf("row %d differs between leader recomputation and follower view", i)
		}
	}
	if len(want) == 0 {
		return errors.New("empty view — smoke workload did not exercise the join")
	}
	if err := tailer.Err(); err != nil {
		return fmt.Errorf("tailer: %w", err)
	}
	st := follower.Engine().Stats()
	fmt.Printf("rollserve smoke: %d rows converged; follower CSN %d, reconnects %d, %d bytes shipped\n",
		len(have), st.Repl.FollowerCSN, st.Repl.Reconnects, st.Repl.BytesShipped)
	if st.Repl.Reconnects == 0 {
		return errors.New("leader kill did not force a reconnect")
	}
	return nil
}
