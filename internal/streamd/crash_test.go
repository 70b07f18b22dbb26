package streamd

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"streamgpp/internal/exec"
	"streamgpp/internal/obs"
)

// readLedger and readEvents return a file's committed records and
// whether it ends in a torn tail.
func readLedger(path string) ([]obs.LedgerEntry, bool, error) {
	entries, stats, err := obs.ReadJSONL[obs.LedgerEntry](path)
	return entries, stats.TornTail, err
}

func readEvents(path string) ([]Event, bool, error) {
	events, stats, err := obs.ReadJSONL[Event](path)
	return events, stats.TornTail, err
}

// readsWhole checks that both files read back with no torn tail.
func readsWhole(ledgerPath, eventsPath string) error {
	if _, torn, err := readLedger(ledgerPath); err != nil || torn {
		return fmt.Errorf("ledger after a clean drain: torn %v, err %v", torn, err)
	}
	if _, torn, err := readEvents(eventsPath); err != nil || torn {
		return fmt.Errorf("event log after a clean drain: torn %v, err %v", torn, err)
	}
	return nil
}

// lastRecordStart returns the offset of the last line of a file that
// ends in '\n'.
func lastRecordStart(t *testing.T, b []byte) int {
	t.Helper()
	if len(b) == 0 || b[len(b)-1] != '\n' {
		t.Fatalf("file does not end in a committed record: %q", b)
	}
	return bytes.LastIndexByte(b[:len(b)-1], '\n') + 1
}

// TestCrashConsistency simulates a crash during the last append to the
// ledger and to the event log of a server that has served jobs: each
// file is cut at every byte offset inside its last record, down to
// dropping only the final '\n'. After each cut a restart must succeed,
// every earlier record must read back, event seq must resume after the
// last surviving event, one more job must append cleanly, and a second
// restart must find no torn tail.
func TestCrashConsistency(t *testing.T) {
	dir := t.TempDir()
	ledgerPath := filepath.Join(dir, "streamd.jsonl")
	eventsPath := ledgerPath + ".events"
	opts := Options{Workers: 1, LedgerPath: ledgerPath}

	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Two fresh runs (two ledger entries) and one cache hit.
	other := quickSpec()
	other.Seed = 2
	for _, spec := range []JobSpec{quickSpec(), other, quickSpec()} {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
	}
	s.Drain()
	ledgerBytes, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	eventsBytes, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	ledger, _, err := readLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	events, _, err := readEvents(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(ledger) != 2 || len(events) != 11 {
		t.Fatalf("served %d ledger entries and %d events, want 2 and 11", len(ledger), len(events))
	}

	// restart opens a server over the files, checks the torn tail it
	// reports, serves one job with a stub runner and drains.
	restart := func(wantTorn bool) error {
		s, err := New(opts)
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		defer s.Drain()
		s.run = func(ctx context.Context, spec JobSpec, canonical, key string, base uint64, progress func(exec.ProgressFrame)) (*artifacts, error) {
			p := []byte(`{"app":"` + spec.App + `"}`)
			return &artifacts{payload: p, hash: obs.Hash(string(p)), simCycles: 1, metrics: map[string]float64{"sim.cycles": 1}}, nil
		}
		if got := s.Stats().LedgerTornTail; got != wantTorn {
			return fmt.Errorf("restart reported ledger torn tail %v, want %v", got, wantTorn)
		}
		j, err := s.Submit(quickSpec())
		if err != nil {
			return err
		}
		<-j.Done()
		if st := j.Status(); st.State != StateDone {
			return fmt.Errorf("job after restart: %+v", st)
		}
		return nil
	}

	files := []struct {
		name  string
		path  string
		whole []byte
		check func() error // after a restart that served one more job
	}{
		{"ledger", ledgerPath, ledgerBytes, func() error {
			got, torn, err := readLedger(ledgerPath)
			if err != nil {
				return err
			}
			kept := ledger[:len(ledger)-1]
			if torn || len(got) != len(kept)+1 || !reflect.DeepEqual(got[:len(kept)], kept) {
				return fmt.Errorf("ledger after restart: %d entries (torn %v), want the %d earlier ones plus one",
					len(got), torn, len(kept))
			}
			if last := got[len(got)-1]; last.Source != "streamd" || last.Experiment != "streamd/QUICKSTART" {
				return fmt.Errorf("appended entry: %+v", last)
			}
			return nil
		}},
		{"events", eventsPath, eventsBytes, func() error {
			got, torn, err := readEvents(eventsPath)
			if err != nil {
				return err
			}
			kept := events[:len(events)-1]
			if torn || len(got) != len(kept)+4 || !reflect.DeepEqual(got[:len(kept)], kept) {
				return fmt.Errorf("events after restart: %d (torn %v), want the %d earlier ones plus 4",
					len(got), torn, len(kept))
			}
			for i, e := range got[len(kept):] {
				if want := kept[len(kept)-1].Seq + 1 + uint64(i); e.Seq != want {
					return fmt.Errorf("event %d after restart has seq %d, want %d", i, e.Seq, want)
				}
			}
			return nil
		}},
	}
	for _, f := range files {
		t.Run(f.name, func(t *testing.T) {
			start := lastRecordStart(t, f.whole)
			for cut := start; cut < len(f.whole); cut++ {
				for _, g := range files {
					if err := os.WriteFile(g.path, g.whole, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				if err := os.WriteFile(f.path, f.whole[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				err := restart(f.name == "ledger" && cut > start)
				if err == nil {
					err = f.check()
				}
				if err == nil {
					err = restart(false)
				}
				if err == nil {
					err = readsWhole(ledgerPath, eventsPath)
				}
				if err != nil {
					t.Fatalf("cut at byte %d of %d (last record starts at %d): %v", cut, len(f.whole), start, err)
				}
			}
		})
	}
}
