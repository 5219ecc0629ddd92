package core

import (
	"fmt"
	"testing"

	"repro/internal/lsm"
	"repro/internal/maint"
	"repro/internal/obs"
)

// treeImage lists every entry of every source of a tree, unreconciled, after
// the tree's disk-component count.
func treeImage(t *testing.T, tr *lsm.Tree) []string {
	t.Helper()
	comps := tr.Components()
	it, err := lsm.NewMergedIterator(lsm.IterOptions{Components: comps, Mem: tr.Mem(), NoReconcile: true})
	if err != nil {
		t.Fatal(err)
	}
	out := []string{fmt.Sprintf("components=%d", len(comps))}
	for {
		item, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		e := item.Entry
		out = append(out, fmt.Sprintf("key=%x ts=%d anti=%v value=%x", e.Key, e.TS, e.Anti, e.Value))
	}
}

// TestMaintJournalObservationalOnly proves the maintenance journal never
// feeds back into engine behavior: the identical seeded stream into a
// dataset with the zero Config.Journal and into one bound to a journal must
// leave the same image in every index — components, entries, timestamps —
// and the same ingestion counts. Maintenance runs on the writer, so the
// image is a function of the stream alone.
func TestMaintJournalObservationalOnly(t *testing.T) {
	journal := obs.NewJournal(0)
	open := func(j obs.ShardJournal) *Dataset {
		pool := maint.NewPool(0)
		t.Cleanup(pool.Close)
		d := newAsyncDataset(t, pool, func(c *Config) {
			c.Strategy = Validation
			c.Journal = j
		})
		driveReplayStream(t, d, 29, 3000, 0)
		if err := d.FlushAll(); err != nil {
			t.Fatal(err)
		}
		return d
	}
	off, on := open(obs.ShardJournal{}), open(obs.ShardJournal{J: journal})

	if off.IngestedCount() != on.IngestedCount() || off.IgnoredCount() != on.IgnoredCount() {
		t.Fatalf("counts diverge: off %d/%d on %d/%d",
			off.IngestedCount(), off.IgnoredCount(), on.IngestedCount(), on.IgnoredCount())
	}
	for i, nt := range off.trees {
		want, got := treeImage(t, nt.tree), treeImage(t, on.trees[i].tree)
		if len(want) < 2 {
			t.Fatalf("setup: tree %d is empty", i)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("tree %d diverges with the journal bound:\noff: %.400s\non:  %.400s", i, want, got)
		}
	}

	sum := journal.Summary()
	if sum.Flushes < 2 || sum.FlushBytes <= 0 || sum.Merges < 1 {
		t.Fatalf("bound journal summary = %+v, want the stream's flushes and merges", sum)
	}
	if sum.ActiveFlushes != 0 || sum.ActiveMerges != 0 {
		t.Fatalf("drained dataset reports active maintenance: %+v", sum)
	}
}

// TestMergeJournalReportsBytes: a secondary merge that repairs (Validation
// with merge repair) or filters by deleted keys (Deleted-key) is journaled
// with its merged component's size, as a plain merge is, not as 0 bytes.
func TestMergeJournalReportsBytes(t *testing.T) {
	for _, v := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"validation/merge-repair", func(c *Config) { c.Strategy = Validation; c.MergeRepair = true }},
		{"deleted-key", func(c *Config) { c.Strategy = DeletedKey }},
	} {
		t.Run(v.name, func(t *testing.T) {
			journal := obs.NewJournal(4096)
			pool := maint.NewPool(0)
			t.Cleanup(pool.Close)
			d := newAsyncDataset(t, pool, func(c *Config) {
				v.mutate(c)
				c.Journal = obs.ShardJournal{J: journal}
			})
			driveReplayStream(t, d, 29, 3000, 0)
			if err := d.FlushAll(); err != nil {
				t.Fatal(err)
			}
			merges := 0
			for _, ev := range journal.Events() {
				if ev.Kind != obs.JMerge.String() || ev.Tree != "location" {
					continue
				}
				merges++
				if ev.Bytes <= 0 || ev.Err != "" {
					t.Fatalf("secondary merge journaled as %+v, want its output bytes", ev)
				}
			}
			if merges == 0 {
				t.Fatal("setup: the stream merged no secondary components")
			}
			t.Logf("%d secondary merges journaled with their bytes", merges)
		})
	}
}
