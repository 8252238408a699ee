package rbtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"cloud4home/internal/ids"
)

func TestInsertGetDelete(t *testing.T) {
	tr := New[string]()
	if tr.Len() != 0 {
		t.Fatal("new tree should be empty")
	}
	if !tr.Insert(10, "a") {
		t.Fatal("insert of new key should report true")
	}
	if tr.Insert(10, "b") {
		t.Fatal("re-insert of existing key should report false")
	}
	v, ok := tr.Get(10)
	if !ok || v != "b" {
		t.Fatalf("Get(10) = %q, %v; want b, true", v, ok)
	}
	if _, ok := tr.Get(11); ok {
		t.Fatal("Get of missing key should report false")
	}
	if !tr.Delete(10) {
		t.Fatal("delete of existing key should report true")
	}
	if tr.Delete(10) {
		t.Fatal("delete of missing key should report false")
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after delete, want 0", tr.Len())
	}
}

func TestAscendSorted(t *testing.T) {
	tr := New[int]()
	rng := rand.New(rand.NewSource(1))
	want := make([]ids.ID, 0, 500)
	seen := map[ids.ID]bool{}
	for i := 0; i < 500; i++ {
		k := ids.ID(rng.Uint64() & uint64(ids.Max()))
		if seen[k] {
			continue
		}
		seen[k] = true
		tr.Insert(k, i)
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	got := ascending(tr)
	if len(got) != len(want) {
		t.Fatalf("Keys len = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Keys[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSuccessorPredecessorWrap(t *testing.T) {
	tr := New[string]()
	for _, k := range []ids.ID{10, 20, 30} {
		tr.Insert(k, k.String())
	}
	k, _, ok := tr.Successor(20)
	if !ok || k != 30 {
		t.Errorf("Successor(20) = %v, want 30", k)
	}
	k, _, ok = tr.Successor(30)
	if !ok || k != 10 {
		t.Errorf("Successor(30) should wrap to 10, got %v", k)
	}
	k, _, ok = tr.Predecessor(20)
	if !ok || k != 10 {
		t.Errorf("Predecessor(20) = %v, want 10", k)
	}
	k, _, ok = tr.Predecessor(10)
	if !ok || k != 30 {
		t.Errorf("Predecessor(10) should wrap to 30, got %v", k)
	}
	// Keys not present in the tree still get ring neighbours.
	k, _, _ = tr.Successor(25)
	if k != 30 {
		t.Errorf("Successor(25) = %v, want 30", k)
	}
	k, _, _ = tr.Predecessor(25)
	if k != 20 {
		t.Errorf("Predecessor(25) = %v, want 20", k)
	}
}

func TestEmptyTreeQueries(t *testing.T) {
	tr := New[int]()
	if _, _, ok := tr.Min(); ok {
		t.Error("Min on empty tree should report false")
	}
	if _, _, ok := tr.Max(); ok {
		t.Error("Max on empty tree should report false")
	}
	if _, _, ok := tr.Successor(5); ok {
		t.Error("Successor on empty tree should report false")
	}
	if _, _, ok := tr.Predecessor(5); ok {
		t.Error("Predecessor on empty tree should report false")
	}
	tr.Ascend(func(ids.ID, int) bool {
		t.Error("Ascend on empty tree should not call fn")
		return false
	})
}

func TestMinMax(t *testing.T) {
	tr := New[int]()
	for i := 100; i >= 1; i-- {
		tr.Insert(ids.ID(i), i)
	}
	k, v, _ := tr.Min()
	if k != 1 || v != 1 {
		t.Errorf("Min = (%v, %d), want (1, 1)", k, v)
	}
	k, v, _ = tr.Max()
	if k != 100 || v != 100 {
		t.Errorf("Max = (%v, %d), want (100, 100)", k, v)
	}
}

// checkRB validates the red-black invariants: root is black, no red node
// has a red child, and every root-to-leaf path has the same black height.
func checkRB[V any](t *testing.T, tr *Tree[V]) {
	t.Helper()
	if tr.root == nil {
		return
	}
	if tr.root.color != black {
		t.Fatal("root must be black")
	}
	var walk func(n *node[V]) int
	walk = func(n *node[V]) int {
		if n == nil {
			return 1
		}
		if n.color == red {
			if (n.left != nil && n.left.color == red) || (n.right != nil && n.right.color == red) {
				t.Fatal("red node with red child")
			}
		}
		if n.left != nil && n.left.key >= n.key {
			t.Fatal("BST order violated on left")
		}
		if n.right != nil && n.right.key <= n.key {
			t.Fatal("BST order violated on right")
		}
		lh := walk(n.left)
		rh := walk(n.right)
		if lh != rh {
			t.Fatalf("black height mismatch: %d vs %d", lh, rh)
		}
		if n.color == black {
			return lh + 1
		}
		return lh
	}
	walk(tr.root)
}

func TestInvariantsUnderChurn(t *testing.T) {
	tr := New[int]()
	rng := rand.New(rand.NewSource(42))
	live := map[ids.ID]bool{}
	for i := 0; i < 3000; i++ {
		k := ids.ID(rng.Intn(800))
		if rng.Intn(3) == 0 {
			got := tr.Delete(k)
			if got != live[k] {
				t.Fatalf("Delete(%v) = %v, want %v", k, got, live[k])
			}
			delete(live, k)
		} else {
			got := tr.Insert(k, i)
			if got == live[k] {
				t.Fatalf("Insert(%v) newness = %v, want %v", k, got, !live[k])
			}
			live[k] = true
		}
		if tr.Len() != len(live) {
			t.Fatalf("Len = %d, want %d", tr.Len(), len(live))
		}
	}
	checkRB(t, tr)
	for k := range live {
		if _, ok := tr.Get(k); !ok {
			t.Fatalf("live key %v missing", k)
		}
	}
}

func TestQuickMatchesSortedSlice(t *testing.T) {
	f := func(raw []uint16) bool {
		tr := New[int]()
		set := map[ids.ID]bool{}
		for i, r := range raw {
			k := ids.ID(r)
			tr.Insert(k, i)
			set[k] = true
		}
		keys := ascending(tr)
		if len(keys) != len(set) {
			return false
		}
		for i := 1; i < len(keys); i++ {
			if keys[i-1] >= keys[i] {
				return false
			}
		}
		for _, k := range keys {
			if !set[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// ascending returns tr's keys in Ascend's order.
func ascending[V any](tr *Tree[V]) []ids.ID {
	var out []ids.ID
	tr.Ascend(func(k ids.ID, _ V) bool {
		out = append(out, k)
		return true
	})
	return out
}
