"""Finite ordered trees: n-Strahler numbers, order-preserving
embeddings, finite universal-tree construction and enumeration."""

from dataclasses import dataclass, field
from itertools import product

from .errors import PreconditionFailed, UndefinedTree

# `_levels` packs _COUNTS counts for each of depths 1 to _LEVELS into one
# int, a _WIDTH-bit field per count, depth 1 lowest: the nodes at that depth,
# then those with at least 1, 2 and 3 children; the top bit of each field is
# a guard that no count reaches
_LEVELS, _COUNTS, _WIDTH = 6, 4, 16
_FIELDS = _LEVELS * _COUNTS
_SATURATED = sum(((1 << _WIDTH - 1) - 1) << k * _WIDTH for k in range(_FIELDS))
_GUARDS = sum(1 << (k + 1) * _WIDTH - 1 for k in range(_FIELDS))
# _FANS[m]: the fields of depth 1 that a child with m children adds to, m
# capped at _COUNTS - 1
_FANS = tuple(sum(1 << c * _WIDTH for c in range(m + 1)) for m in range(_COUNTS))
# the largest tree whose repr is its bracket text
_REPR_NODES = 1000


@dataclass(frozen=True)
class OrderedTree:
    """An ordered tree, immutable and hashable by structure.

    Each tree caches, from its children's when it is built, its hash, its
    expanded node count (`node_count`), its depth, its leaf count
    (`_leaves`, 1 for a leaf) and, at each of depths 1 to 6, its node count
    and its counts of nodes with at least 1, 2 and 3 children (`_levels`,
    packed into one int), so none of them takes a walk.  A tree that embeds
    in another has at most its size, depth and leaf count (its children go
    to distinct children of its image), and at most each of its level
    counts: an embedding maps the nodes at depth k one-to-one to nodes at
    depth k, and each node to one with at least as many children, so for
    every c the nodes at depth k with at least c children go one-to-one to
    such nodes of the host.  `embed` prunes its search by all of them.  The
    level counts saturate once the size reaches 2**15, so their cost per
    tree is fixed.  Bracket parsing and printing, `==` and `n_strahler` run
    on explicit stacks, so a tree thousands of levels deep is fine.  The
    repr is the bracket text up to 1,000 expanded nodes and names the size
    and depth beyond, so shared subtrees cannot make it unbounded.
    """

    children: tuple = ()

    def __post_init__(self):
        # hash, expanded node count, depth, leaf count and level counts, each
        # from the children's
        hashes, size, deep, leaves, levels, fans = [], 1, 0, 0, 0, 0
        for c in self.children:
            hashes.append(c._hash)
            size += c._size
            leaves += c._leaves
            levels += c._levels
            fans += _FANS[min(len(c.children), _COUNTS - 1)]
            if c._depth > deep:
                deep = c._depth
        if size >> _WIDTH - 1:
            # a count could reach the guard bit.  `_size` bounds every count,
            # so a saturated host refuses no query, and a saturated query is
            # refused by size unless its host is saturated too
            levels = _SATURATED
        else:
            levels = ((levels << _COUNTS * _WIDTH) + fans) & _SATURATED
        object.__setattr__(self, "_hash", hash(tuple(hashes)))
        object.__setattr__(self, "_size", size)
        object.__setattr__(self, "_depth", deep + 1)
        object.__setattr__(self, "_leaves", leaves or 1)
        object.__setattr__(self, "_levels", levels)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, OrderedTree):
            return NotImplemented
        # pairs of subtrees still to compare, so deep trees need no recursion
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a._hash != b._hash or len(a.children) != len(b.children):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def node_count(self):
        return self._size

    def to_brackets(self):
        """Bracket text: leaf = "()", node = "(" + children + ")"."""
        parts = ["("]
        # iterators over the children still to print, one per open node
        stack = [iter(self.children)]
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
                parts.append(")")
            else:
                parts.append("(")
                stack.append(iter(child.children))
        return "".join(parts)

    @staticmethod
    def from_brackets(text):
        text = text.strip()
        # children parsed so far, one list per open node
        stack = []
        for pos, ch in enumerate(text):
            if ch == "(":
                stack.append([])
            elif not stack:
                raise PreconditionFailed("brackets", f"expected '(' at {pos}")
            elif ch == ")":
                node = OrderedTree(tuple(stack.pop()))
                if not stack:
                    if pos + 1 != len(text):
                        raise PreconditionFailed("brackets", "trailing characters")
                    return node
                stack[-1].append(node)
            else:
                raise PreconditionFailed("brackets", f"expected ')' at {pos}")
        if not text:
            raise PreconditionFailed("brackets", "expected '(' at 0")
        raise PreconditionFailed("brackets", f"expected ')' at {len(text)}")

    def __repr__(self):
        if self._size > _REPR_NODES:
            return f"<OrderedTree of {self._size} nodes, depth {self._depth}>"
        return f"OrderedTree{self.to_brackets()!r}"


LEAF = OrderedTree()


def strahler_from_children(values, n):
    """n-Strahler number of a node whose children have the given ones: a
    leaf has 1, and a node bumps the children's max by one exactly when at
    least n+1 of them attain it."""
    if not values:
        return 1
    m = max(values)
    return m + 1 if values.count(m) >= n + 1 else m


def n_strahler(t, n):
    """n-Strahler number of t, bottom-up without recursion."""
    if n < 1:
        raise PreconditionFailed("n_strahler", "n must be >= 1")
    memo = {}
    get = memo.get
    # (node, iterator over its children, values of the children done)
    stack = [(t, iter(t.children), [])]
    while True:
        node, kids, vals = stack[-1]
        for c in kids:
            v = get(c)
            if v is None:
                stack.append((c, iter(c.children), []))
                break
            vals.append(v)
        else:
            stack.pop()
            v = strahler_from_children(vals, n)
            memo[node] = v
            if not stack:
                return v
            stack[-1][2].append(v)


@dataclass(frozen=True)
class Embedding:
    """Maps each embedded node's child-index path to its image path in the host."""

    mapping: dict = field(hash=False)

    def check(self, t, host):
        """Validate root-to-root, per-node strict order preservation and
        totality, walking the query and the host down together, so each node
        is reached from its parent's entry, never by its path from the root."""
        mapping = self.mapping
        if mapping.get(()) != ():
            return False
        # (query node, its image, both paths), each reached through its parent
        stack = [(t, host, (), ())]
        reached = 1
        while stack:
            a, b, path, image = stack.pop()
            last = -1
            for i, c in enumerate(a.children):
                child = path + (i,)
                got = mapping.get(child)
                if got is None or len(got) != len(child) or got[:-1] != image:
                    return False
                k = got[-1]
                if not last < k < len(b.children):
                    return False
                last = k
                stack.append((c, b.children[k], child, got))
                reached += 1
        # every key reached names a distinct query node; any other key names none
        return reached == len(mapping)


def _fits(t, host, memo):
    """Whether t embeds in host, by the greedy leftmost search.

    Greedy is exact here: whether child t_i fits under host child h_j does
    not depend on where the other children go, so any embedding can be
    exchanged child by child into the leftmost one.  A leaf fits anywhere,
    and a child larger, deeper or with more leaves than a host child fits
    nowhere under it, so neither needs a search; a scan stops once fewer
    host children are left than children to place.  The search runs on an
    explicit stack, so trees thousands of levels deep are fine.  `memo`
    maps (id(a), id(b)) to the verdict of every searched pair, so its
    caller keeps each `a` alive while `memo` is in use.
    """
    # frames [a, b, i, j]: child i of a is the next to place, from host child j
    stack = [[t, host, 0, 0]]
    verdict = None
    while stack:
        frame = stack[-1]
        a, b, i, j = frame
        kids, hosts = a.children, b.children
        if verdict is not None:
            # the frame just popped decided kids[i] under hosts[j]
            if verdict:
                i += 1
            j += 1
            verdict = None
        while i < len(kids):
            if len(hosts) - j < len(kids) - i:
                verdict = False
                break
            c, h = kids[i], hosts[j]
            if not c.children:
                i += 1
            elif c._size <= h._size and c._depth <= h._depth and c._leaves <= h._leaves:
                got = memo.get((id(c), id(h)))
                if got is None:
                    frame[2], frame[3] = i, j
                    stack.append([c, h, 0, 0])
                    break
                if got:
                    i += 1
            j += 1
        else:
            verdict = True
        if verdict is not None:
            memo[id(a), id(b)] = verdict
            stack.pop()
    return verdict


def embed(t, host):
    """Greedy leftmost isomorphic embedding, or None.

    A query larger, deeper or with more leaves than its host, or with more
    nodes, or more nodes of at least 1, 2 or 3 children, than the host at
    one of depths 1 to 6, is refused before any search.  That is sound: an
    embedding maps the query's nodes at depth k one-to-one to host nodes at
    depth k, each to one with at least as many children, so no count of
    the query's can exceed the host's.  One subtract-and-mask over the
    packed `_levels` compares all 24 counts, and a guard bit per field
    stops a borrow from crossing into the next.
    Otherwise `_fits` decides, and a second pass follows the same scan,
    reading its verdicts, to map each node's child-index path to its
    image's.
    """
    if (
        t._size > host._size
        or t._depth > host._depth
        or t._leaves > host._leaves
        or ((host._levels | _GUARDS) - t._levels) & _GUARDS != _GUARDS
    ):
        return None
    memo = {}
    if not _fits(t, host, memo):
        return None
    mapping = {(): ()}
    # every non-leaf pair that a fitting pair's scan tried has its verdict
    stack = [(t, host, (), ())]
    while stack:
        a, b, path, image = stack.pop()
        hosts = b.children
        j = 0
        for i, c in enumerate(a.children):
            h = hosts[j]
            while c.children and not (
                c._size <= h._size
                and c._depth <= h._depth
                and c._leaves <= h._leaves
                and memo[id(c), id(h)]
            ):
                j += 1
                h = hosts[j]
            child, got = path + (i,), image + (j,)
            mapping[child] = got
            if c.children:
                stack.append((c, h, child, got))
            j += 1
    return Embedding(mapping)


def universal_tree(n, k, d, w):
    """Finite truncation of the universal tree: omega-blocks become w copies.

    The n-Strahler number of the result equals k whenever w >= n+1 (a
    truncated block of fewer than n+1 equal children cannot force the bump).
    Universality is guaranteed for candidates of branching degree <= w.
    The tree (kk, dd) is a leaf at (1, 1); otherwise its children are w
    copies of (kk-1, dd-1) if kk >= 2, then n times the copy of
    (kk, dd-1) if dd-1 >= kk followed by the w copies again.  It is built
    bottom-up in `universal_tree_size`'s order, without recursion, with one
    object per distinct subtree; a printout repeats a shared subtree at
    each occurrence, so `paritykit universal` sizes the tree first with
    `universal_tree_size`.
    """
    _check_universal(n, k, d, w)
    # row[x]: the tree (kk, kk + gap) for kk = x + 1, at the gap in hand
    row = []
    for gap in range(d - k + 1):
        new = []
        for kk in range(1, k + 1):
            block = [new[-1]] * w if kk >= 2 else []
            kids = block + ([row[kk - 1], *block] if gap else block) * n
            new.append(OrderedTree(tuple(kids)) if kids else LEAF)
        row = new
    return row[-1]


def _check_universal(n, k, d, w):
    if n < 1 or w < 1:
        raise PreconditionFailed("universal_tree", "n and w must be positive")
    if k == 0 or k > d:
        raise UndefinedTree(f"U(n={n},k={k},d={d}) is undefined")


def universal_tree_size(n, k, d, w, cap):
    """Expanded node count of `universal_tree(n, k, d, w)`, from the
    recurrence of its `build` and without building it; or, once a count
    exceeds `cap`, the first such count met, a subtree's, which the whole
    tree's is no smaller than.

    The tree (kk, dd) holds (n+1)*w copies of (kk-1, dd-1) if kk >= 2 and
    n copies of (kk, dd-1) if dd-1 >= kk; counts are taken by the gap
    dd-kk, ascending, each gap's by kk ascending.  So `paritykit universal`
    exits 3 before building anything: `--n 3 --k 4 --depth 9 --width 4`,
    whose tree has 71,719,612 nodes, names a subtree of 438,829 under the
    default cap, and `--depth 300000` on the 1-wide chain exits at once.
    """
    _check_universal(n, k, d, w)
    row = []
    for gap in range(d - k + 1):
        new = []
        for x, kk in enumerate(range(min(k, 1), k + 1)):
            size = 1
            if kk >= 2:
                size += (n + 1) * w * new[x - 1]
            if gap:
                size += n * row[x]
            if size > cap:
                return size
            new.append(size)
        row = new
    return row[-1]


def is_universal_for(host, candidates):
    """(True, None) if every candidate embeds into host, else (False, first failure).

    Only verdicts are needed, so each candidate runs `_fits` with no
    mapping pass, and one memo serves the whole call: candidates that share
    subtrees share their verdicts.  The memo is keyed by `id`, so `kept`
    holds every candidate until the call returns; a subtree freed before
    then, as one a generator drops, could pass its id to a new tree.
    """
    memo, kept = {}, []
    for t in candidates:
        kept.append(t)
        if not _fits(t, host, memo):
            return False, t
    return True, None


def enumerate_trees(max_nodes, max_depth, max_branch):
    """All ordered trees of at most `max_nodes` nodes, depth at most
    `max_depth` and fan-out at most `max_branch`, each once.

    Order: by node count; within a count, by the tuple of the root's
    children's node counts, lexicographically; within that, by the
    children's own order, the last child varying fastest.  Subtrees are
    shared objects, the pools of the level below.

    Only trees that exist are tried.  A tree of depth <= d and fan-out <= b
    has at most 1 + b + ... + b**(d-1) nodes, so no node count or child
    size beyond that bound is tried, and neither is one that leaves too few
    of `max_nodes` for the levels above it: `enumerate_trees(10**6, 2, 2)`
    returns its 3 trees at once.  A tree of k nodes has depth at most k, so
    the pool of k nodes at depth bound d is that at bound min(d, k): it is
    built once and shared by every bound from k up.  The pools are built
    bound by bound, each from the one below, with no recursion and no
    closure, so a call leaves no cyclic garbage.
    """
    if max_nodes < 1 or max_depth < 1 or max_branch < 1:
        raise PreconditionFailed("enumerate_trees", "bounds must be >= 1")
    top = min(max_depth, max_nodes)
    # most: the nodes of the largest tree of depth <= d, held at max_nodes
    # pools[k]: the trees of k nodes and depth <= d (pools[0] is unused)
    most, pools = 1, [None, [LEAF]]
    for d in range(2, top + 1):
        most = min(1 + max_branch * most, max_nodes)
        # a tree at this bound sits below top - d ancestors, one node each
        limit = min(most, max_nodes - top + d)
        # the pools of fewer than d nodes are those of the bound below
        below, pools = pools, pools[:d]
        for nodes in range(d, limit + 1):
            pool = []
            for parts in _compositions(nodes - 1, max_branch, len(below) - 1):
                pool.extend(map(OrderedTree, product(*[below[p] for p in parts])))
            pools.append(pool)
    return [t for pool in pools[1:] for t in pool]


def _compositions(total, max_parts, max_part):
    """Ordered compositions of `total` into at most `max_parts` parts of 1
    to `max_part` each, in lexicographic order; only prefixes that some
    composition completes are grown."""
    # (what is left to split, parts so far), popped in lexicographic order
    stack = [(total, ())]
    while stack:
        left, parts = stack.pop()
        if not left:
            yield parts
            continue
        low = max(1, left - (max_parts - len(parts) - 1) * max_part)
        for first in range(min(left, max_part), low - 1, -1):
            stack.append((left - first, parts + (first,)))
