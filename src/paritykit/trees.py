"""Finite ordered trees: depth, n-Strahler numbers, order-preserving
embeddings, finite universal-tree construction and enumeration."""

from dataclasses import dataclass, field
from itertools import product

from .errors import PreconditionFailed, UndefinedTree
from .games import unwind


@dataclass(frozen=True)
class OrderedTree:
    children: tuple = ()

    def __post_init__(self):
        # hash, expanded node count and depth, each from the children's
        hashes, size, deep = [], 1, 0
        for c in self.children:
            hashes.append(c._hash)
            size += c._size
            if c._depth > deep:
                deep = c._depth
        object.__setattr__(self, "_hash", hash(tuple(hashes)))
        object.__setattr__(self, "_size", size)
        object.__setattr__(self, "_depth", deep + 1)

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

    @property
    def is_leaf(self):
        return not self.children

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
        return f"OrderedTree{self.to_brackets()!r}"


LEAF = OrderedTree()


def depth(t):
    """Leaf has depth 1; a node adds one to its deepest child."""
    return t._depth


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
        """Validate root-to-root, per-node strict order preservation and totality."""

        def node_at(tree, path):
            for i in path:
                tree = tree.children[i]
            return tree

        if self.mapping.get(()) != ():
            return False
        for path, image in self.mapping.items():
            if len(path) != len(image):
                return False
            if path and (path[:-1] not in self.mapping or self.mapping[path[:-1]] != image[:-1]):
                return False
            try:
                node_at(t, path), node_at(host, image)
            except IndexError:
                return False
        seen = set()
        stack = [()]
        while stack:
            p = stack.pop()
            seen.add(p)
            node = node_at(t, p)
            images = []
            for i in range(len(node.children)):
                child = p + (i,)
                if child not in self.mapping:
                    return False
                images.append(self.mapping[child][-1])
                stack.append(child)
            if images != sorted(set(images)) or len(set(images)) != len(images):
                return False
        return seen == set(self.mapping)


def embed(t, host):
    """Greedy leftmost isomorphic embedding, or None.

    Greedy is exact here: whether child t_i fits under host child h_j does
    not depend on where the other children go, so any embedding can be
    exchanged child by child into the leftmost one.  A leaf fits anywhere
    and a tree larger or deeper than its host fits nowhere, so neither
    needs a search.
    """
    if t._size > host._size or t._depth > host._depth:
        return None
    # verdicts of the searched pairs, by (id(a), id(b))
    memo = {}
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
            elif c._size <= h._size and c._depth <= h._depth:
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
    if not verdict:
        return None
    mapping = {}
    # every non-leaf pair that a fitting pair's scan tried has its verdict
    stack = [(t, host, (), ())]
    while stack:
        a, b, path, image = stack.pop()
        mapping[path] = image
        placed = []
        j = 0
        hosts = b.children
        for i, c in enumerate(a.children):
            while c.children and not (
                c._size <= hosts[j]._size
                and c._depth <= hosts[j]._depth
                and memo[id(c), id(hosts[j])]
            ):
                j += 1
            placed.append((c, hosts[j], path + (i,), image + (j,)))
            j += 1
        stack.extend(reversed(placed))
    return Embedding(mapping)


def universal_tree(n, k, d, w):
    """Finite truncation of the universal tree: omega-blocks become w copies.

    The n-Strahler number of the result equals k whenever w >= n+1 (a
    truncated block of fewer than n+1 equal children cannot force the bump).
    Universality is guaranteed for candidates of branching degree <= w.
    """
    _check_universal(n, k, d, w)
    memo = {}

    def build(kk, dd):
        if (kk, dd) in memo:
            return memo[(kk, dd)]
        if kk == 1 and dd == 1:
            memo[(kk, dd)] = LEAF
            return LEAF
        block = [(yield build(kk - 1, dd - 1))] * w if kk >= 2 else []
        mid = (yield build(kk, dd - 1)) if dd - 1 >= kk else None
        kids = list(block)
        for _ in range(n):
            if mid is not None:
                kids.append(mid)
            kids.extend(block)
        out = OrderedTree(tuple(kids))
        memo[(kk, dd)] = out
        return out

    return unwind(build(k, d))


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
    dd-kk, ascending, each gap's by kk ascending.
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
    """(True, None) if every candidate embeds into host, else (False, first failure)."""
    for t in candidates:
        if embed(t, host) is None:
            return False, t
    return True, None


def enumerate_trees(max_nodes, max_depth, max_branch):
    """All ordered trees within the bounds, each once, ordered by node count
    then by generation order."""
    if max_nodes < 1 or max_depth < 1 or max_branch < 1:
        raise PreconditionFailed("enumerate_trees", "bounds must be >= 1")
    memo = {}

    def exact(nodes, dep):
        if dep < 1 or nodes < 1:
            return []
        key = (nodes, dep)
        if key in memo:
            return memo[key]
        if nodes == 1:
            memo[key] = [LEAF]
            return memo[key]
        out = []
        for parts in _compositions(nodes - 1, max_branch):
            pools = [exact(p, dep - 1) for p in parts]
            if any(not pool for pool in pools):
                continue
            for combo in product(*pools):
                out.append(OrderedTree(combo))
        memo[key] = out
        return out

    result = []
    for nodes in range(1, max_nodes + 1):
        result.extend(exact(nodes, max_depth))
    return result


def _compositions(total, max_parts):
    """Ordered compositions of `total` into at most max_parts positive parts."""
    out = []

    def rec(remaining, parts):
        if remaining == 0:
            if parts:
                out.append(tuple(parts))
            return
        if len(parts) == max_parts:
            return
        for first in range(1, remaining + 1):
            rec(remaining - first, parts + [first])

    rec(total, [])
    return out
