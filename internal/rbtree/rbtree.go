// Package rbtree implements the red-black tree that gives each overlay
// node its "logical tree view of other nodes" (paper Fig 2). The tree is
// ordered by 40-bit identifier, so in-order traversal walks the ring, and
// Successor/Predecessor yield a node's right and left neighbours — the
// neighbours notified on join and departure (§III-A).
package rbtree

import "cloud4home/internal/ids"

type color bool

const (
	red   color = true
	black color = false
)

type node[V any] struct {
	key                 ids.ID
	value               V
	left, right, parent *node[V]
	color               color
}

// Tree is a red-black tree mapping 40-bit identifiers to values of type V.
// The zero value is not usable; call New.
type Tree[V any] struct {
	root *node[V]
	size int
}

// New returns an empty tree.
func New[V any]() *Tree[V] { return &Tree[V]{} }

// Len returns the number of entries.
func (t *Tree[V]) Len() int { return t.size }

// Get returns the value stored under key.
func (t *Tree[V]) Get(key ids.ID) (V, bool) {
	n := t.find(key)
	if n == nil {
		var zero V
		return zero, false
	}
	return n.value, true
}

// Insert stores value under key, replacing any existing entry. It reports
// whether a new entry was created.
func (t *Tree[V]) Insert(key ids.ID, value V) bool {
	var parent *node[V]
	cur := t.root
	for cur != nil {
		parent = cur
		switch {
		case key < cur.key:
			cur = cur.left
		case key > cur.key:
			cur = cur.right
		default:
			cur.value = value
			return false
		}
	}
	n := &node[V]{key: key, value: value, parent: parent, color: red}
	switch {
	case parent == nil:
		t.root = n
	case key < parent.key:
		parent.left = n
	default:
		parent.right = n
	}
	t.size++
	t.fixInsert(n)
	return true
}

// Delete removes the entry under key, reporting whether it existed.
func (t *Tree[V]) Delete(key ids.ID) bool {
	n := t.find(key)
	if n == nil {
		return false
	}
	t.delete(n)
	t.size--
	return true
}

// Min returns the smallest key in the tree.
func (t *Tree[V]) Min() (ids.ID, V, bool) {
	if t.root == nil {
		var zero V
		return 0, zero, false
	}
	n := minNode(t.root)
	return n.key, n.value, true
}

// Max returns the largest key in the tree.
func (t *Tree[V]) Max() (ids.ID, V, bool) {
	if t.root == nil {
		var zero V
		return 0, zero, false
	}
	n := t.root
	for n.right != nil {
		n = n.right
	}
	return n.key, n.value, true
}

// Successor returns the entry with the smallest key strictly greater than
// key, wrapping around to Min if key is the largest — i.e. the node's
// "right neighbour" on the identifier ring.
func (t *Tree[V]) Successor(key ids.ID) (ids.ID, V, bool) {
	if t.root == nil {
		var zero V
		return 0, zero, false
	}
	var succ *node[V]
	cur := t.root
	for cur != nil {
		if cur.key > key {
			succ = cur
			cur = cur.left
		} else {
			cur = cur.right
		}
	}
	if succ == nil {
		return t.Min() // wrap
	}
	return succ.key, succ.value, true
}

// Predecessor returns the entry with the largest key strictly less than
// key, wrapping around to Max — the "left neighbour" on the ring.
func (t *Tree[V]) Predecessor(key ids.ID) (ids.ID, V, bool) {
	if t.root == nil {
		var zero V
		return 0, zero, false
	}
	var pred *node[V]
	cur := t.root
	for cur != nil {
		if cur.key < key {
			pred = cur
			cur = cur.right
		} else {
			cur = cur.left
		}
	}
	if pred == nil {
		return t.Max() // wrap
	}
	return pred.key, pred.value, true
}

// Ceiling returns the entry with the smallest key greater than or equal
// to key, without wrapping: if every key is smaller than key, ok is
// false. Range queries (the overlay's prefix-slot refill) use it to find
// the first member inside a numeric ID interval.
func (t *Tree[V]) Ceiling(key ids.ID) (ids.ID, V, bool) {
	var best *node[V]
	cur := t.root
	for cur != nil {
		switch {
		case cur.key < key:
			cur = cur.right
		case cur.key > key:
			best = cur
			cur = cur.left
		default:
			return cur.key, cur.value, true
		}
	}
	if best == nil {
		var zero V
		return 0, zero, false
	}
	return best.key, best.value, true
}

// Floor returns the entry with the largest key less than or equal to
// key, without wrapping: if every key is greater than key, ok is false.
func (t *Tree[V]) Floor(key ids.ID) (ids.ID, V, bool) {
	var best *node[V]
	cur := t.root
	for cur != nil {
		switch {
		case cur.key > key:
			cur = cur.left
		case cur.key < key:
			best = cur
			cur = cur.right
		default:
			return cur.key, cur.value, true
		}
	}
	if best == nil {
		var zero V
		return 0, zero, false
	}
	return best.key, best.value, true
}

// Ascend calls fn for every entry in key order until fn returns false.
func (t *Tree[V]) Ascend(fn func(key ids.ID, value V) bool) {
	n := t.root
	if n == nil {
		return
	}
	for n.left != nil {
		n = n.left
	}
	for n != nil {
		if !fn(n.key, n.value) {
			return
		}
		n = successorNode(n)
	}
}

func (t *Tree[V]) find(key ids.ID) *node[V] {
	cur := t.root
	for cur != nil {
		switch {
		case key < cur.key:
			cur = cur.left
		case key > cur.key:
			cur = cur.right
		default:
			return cur
		}
	}
	return nil
}

func minNode[V any](n *node[V]) *node[V] {
	for n.left != nil {
		n = n.left
	}
	return n
}

func successorNode[V any](n *node[V]) *node[V] {
	if n.right != nil {
		return minNode(n.right)
	}
	p := n.parent
	for p != nil && n == p.right {
		n, p = p, p.parent
	}
	return p
}

func (t *Tree[V]) rotateLeft(x *node[V]) {
	y := x.right
	x.right = y.left
	if y.left != nil {
		y.left.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.left:
		x.parent.left = y
	default:
		x.parent.right = y
	}
	y.left = x
	x.parent = y
}

func (t *Tree[V]) rotateRight(x *node[V]) {
	y := x.left
	x.left = y.right
	if y.right != nil {
		y.right.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.right:
		x.parent.right = y
	default:
		x.parent.left = y
	}
	y.right = x
	x.parent = y
}

func (t *Tree[V]) fixInsert(z *node[V]) {
	for z.parent != nil && z.parent.color == red {
		gp := z.parent.parent
		if z.parent == gp.left {
			uncle := gp.right
			if uncle != nil && uncle.color == red {
				z.parent.color = black
				uncle.color = black
				gp.color = red
				z = gp
				continue
			}
			if z == z.parent.right {
				z = z.parent
				t.rotateLeft(z)
			}
			z.parent.color = black
			gp.color = red
			t.rotateRight(gp)
		} else {
			uncle := gp.left
			if uncle != nil && uncle.color == red {
				z.parent.color = black
				uncle.color = black
				gp.color = red
				z = gp
				continue
			}
			if z == z.parent.left {
				z = z.parent
				t.rotateRight(z)
			}
			z.parent.color = black
			gp.color = red
			t.rotateLeft(gp)
		}
	}
	t.root.color = black
}

func (t *Tree[V]) transplant(u, v *node[V]) {
	switch {
	case u.parent == nil:
		t.root = v
	case u == u.parent.left:
		u.parent.left = v
	default:
		u.parent.right = v
	}
	if v != nil {
		v.parent = u.parent
	}
}

func (t *Tree[V]) delete(z *node[V]) {
	y := z
	yColor := y.color
	var x *node[V]
	var xParent *node[V]
	switch {
	case z.left == nil:
		x = z.right
		xParent = z.parent
		t.transplant(z, z.right)
	case z.right == nil:
		x = z.left
		xParent = z.parent
		t.transplant(z, z.left)
	default:
		y = minNode(z.right)
		yColor = y.color
		x = y.right
		if y.parent == z {
			xParent = y
		} else {
			xParent = y.parent
			t.transplant(y, y.right)
			y.right = z.right
			y.right.parent = y
		}
		t.transplant(z, y)
		y.left = z.left
		y.left.parent = y
		y.color = z.color
	}
	if yColor == black {
		t.fixDelete(x, xParent)
	}
}

func (t *Tree[V]) fixDelete(x *node[V], parent *node[V]) {
	for x != t.root && (x == nil || x.color == black) {
		if parent == nil {
			break
		}
		if x == parent.left {
			w := parent.right
			if w != nil && w.color == red {
				w.color = black
				parent.color = red
				t.rotateLeft(parent)
				w = parent.right
			}
			if w == nil {
				x = parent
				parent = x.parent
				continue
			}
			if (w.left == nil || w.left.color == black) &&
				(w.right == nil || w.right.color == black) {
				w.color = red
				x = parent
				parent = x.parent
				continue
			}
			if w.right == nil || w.right.color == black {
				if w.left != nil {
					w.left.color = black
				}
				w.color = red
				t.rotateRight(w)
				w = parent.right
			}
			w.color = parent.color
			parent.color = black
			if w.right != nil {
				w.right.color = black
			}
			t.rotateLeft(parent)
			x = t.root
			parent = nil
		} else {
			w := parent.left
			if w != nil && w.color == red {
				w.color = black
				parent.color = red
				t.rotateRight(parent)
				w = parent.left
			}
			if w == nil {
				x = parent
				parent = x.parent
				continue
			}
			if (w.left == nil || w.left.color == black) &&
				(w.right == nil || w.right.color == black) {
				w.color = red
				x = parent
				parent = x.parent
				continue
			}
			if w.left == nil || w.left.color == black {
				if w.right != nil {
					w.right.color = black
				}
				w.color = red
				t.rotateLeft(w)
				w = parent.left
			}
			w.color = parent.color
			parent.color = black
			if w.left != nil {
				w.left.color = black
			}
			t.rotateRight(parent)
			x = t.root
			parent = nil
		}
	}
	if x != nil {
		x.color = black
	}
}
