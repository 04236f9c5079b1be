package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/repl"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/wal"
	"mbrtopo/internal/watch"
)

// commitPath is one way a mutation reaches a durable index. setup
// builds the index with hook as its WAL write hook, holding oid 1 at
// seedRect, and returns the instance plus a write that mutates an
// object inside watchRef and reports whether it was acknowledged.
type commitPath struct {
	name     string
	wantType string
	setup    func(t *testing.T, hook func(int64, int) error) (*Instance, func() error)
}

var (
	seedRect  = geom.R(10, 10, 20, 20)
	watchRef  = geom.R(0, 0, 100, 100)
	commitOID = uint64(900001)
)

func newHookedPrimary(t *testing.T, hook func(int64, int) error) (*Server, *Instance) {
	t.Helper()
	srv := New(Config{})
	inst, err := srv.AddIndex(IndexSpec{
		Name: "main", Kind: index.KindRTree, Dir: t.TempDir(),
		Fsync: wal.SyncNever, WALWriteHook: hook,
	}, []index.Item{{Rect: seedRect, OID: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, inst
}

var commitPaths = []commitPath{
	{"insert", "enter", func(t *testing.T, hook func(int64, int) error) (*Instance, func() error) {
		_, inst := newHookedPrimary(t, hook)
		return inst, func() error { return inst.Insert(geom.R(30, 30, 40, 40), commitOID) }
	}},
	{"delete", "exit", func(t *testing.T, hook func(int64, int) error) (*Instance, func() error) {
		_, inst := newHookedPrimary(t, hook)
		return inst, func() error { return inst.Delete(seedRect, 1) }
	}},
	{"bulk", "enter", func(t *testing.T, hook func(int64, int) error) (*Instance, func() error) {
		srv, inst := newHookedPrimary(t, hook)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return inst, func() error {
			line, _ := json.Marshal(BulkLine{OID: commitOID, Rect: []float64{30, 30, 40, 40}})
			resp, err := http.Post(ts.URL+"/v1/bulk?index=main", "application/x-ndjson", bytes.NewReader(line))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			msg, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("/v1/bulk: HTTP %d: %s", resp.StatusCode, msg)
			}
			return nil
		}
	}},
	{"follower", "enter", func(t *testing.T, hook func(int64, int) error) (*Instance, func() error) {
		srv := New(Config{})
		inst, err := srv.AddIndex(IndexSpec{
			Name: "main", Kind: index.KindRTree, Dir: t.TempDir(),
			Fsync: wal.SyncNever, Follower: true, WALWriteHook: hook,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		primary, err := index.New(index.KindRTree)
		if err != nil {
			t.Fatal(err)
		}
		if err := primary.Insert(seedRect, 1); err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := index.WriteFlat(primary, &snap, 1); err != nil {
			t.Fatal(err)
		}
		target := &followerTarget{s: srv, inst: inst}
		if err := target.Bootstrap(repl.Position{Gen: 1}, &snap, int64(snap.Len())); err != nil {
			t.Fatal(err)
		}
		rec := wal.Record{Op: wal.OpInsert, OID: commitOID, Rect: geom.R(30, 30, 40, 40)}
		return inst, func() error { return target.Apply(repl.Position{Gen: 1, Seq: 1}, rec) }
	}},
}

// pendingEvent returns the event already buffered for sub, if any,
// after every batch published so far has been evaluated.
func pendingEvent(inst *Instance, sub *watch.Subscription) (watch.Event, bool) {
	inst.WatchSync()
	select {
	case ev := <-sub.Events():
		return ev, true
	default:
		return watch.Event{}, false
	}
}

// TestCommitUnloggedPublishesNothing: when the WAL write fails, the
// write errors, the index goes unhealthy, the generation stays put, and
// subscribers never hear of the mutation the log does not hold.
func TestCommitUnloggedPublishesNothing(t *testing.T) {
	for _, p := range commitPaths {
		t.Run(p.name, func(t *testing.T) {
			inst, write := p.setup(t, func(int64, int) error { return errors.New("injected disk failure") })
			sub, err := inst.WatchSubscribe(watchRef, topo.NotDisjoint, 64)
			if err != nil {
				t.Fatal(err)
			}
			gen := inst.Generation()
			if err := write(); err == nil {
				t.Fatal("write acknowledged although its WAL append failed")
			}
			if inst.Healthy() {
				t.Fatal("index still healthy after a WAL append failure")
			}
			if got := inst.Generation(); got != gen {
				t.Fatalf("generation moved %d -> %d for an unlogged write", gen, got)
			}
			if ev, ok := pendingEvent(inst, sub); ok {
				t.Fatalf("subscriber received %+v for a mutation that was never logged", ev)
			}
		})
	}
}

// TestCommitPublishesAfterFlush: while the write's WAL flush is held
// back no event is visible; once it completes, the event is published
// by the time the write is acknowledged.
func TestCommitPublishesAfterFlush(t *testing.T) {
	for _, p := range commitPaths {
		t.Run(p.name, func(t *testing.T) {
			entered := make(chan struct{}, 1)
			release := make(chan struct{})
			inst, write := p.setup(t, func(int64, int) error {
				select {
				case entered <- struct{}{}:
				default:
				}
				<-release
				return nil
			})
			sub, err := inst.WatchSubscribe(watchRef, topo.NotDisjoint, 64)
			if err != nil {
				t.Fatal(err)
			}
			acked := make(chan error, 1)
			go func() { acked <- write() }()
			select {
			case <-entered:
			case <-time.After(10 * time.Second):
				close(release)
				t.Fatal("write never reached its WAL flush")
			}
			if ev, ok := pendingEvent(inst, sub); ok {
				close(release)
				<-acked
				t.Fatalf("subscriber received %+v while the write's flush was still blocked", ev)
			}
			close(release)
			if err := <-acked; err != nil {
				t.Fatalf("write: %v", err)
			}
			ev, ok := pendingEvent(inst, sub)
			if !ok {
				t.Fatal("no event published by the time the write was acknowledged")
			}
			if ev.Type.String() != p.wantType {
				t.Fatalf("event %+v, want %s", ev, p.wantType)
			}
		})
	}
}
