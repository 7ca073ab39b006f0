"""The answer pins: one table of seeded corpora whose every answer is fixed.

Each pin is a generator of (call label, answer bytes), one item per call
of its corpus, and its digest is the sha1 of those bytes in order.
tests/test_pins.py asserts every digest.  A change that must keep every
answer proves it call by call:

    PYTHONPATH=src python tests/pins.py save DIR     # at the parent commit
    PYTHONPATH=src python tests/pins.py diff DIR     # at the change

`save` writes every call's answer, one JSON file per pin.  `diff`
computes them again and prints "pin: label" for each call whose answer
differs or that only one side has; it exits 1 if there is any, else 0
with no output.

Besides yielding its answers, a pin asserts what its corpus must cover
and re-checks the answers that carry a certificate (strategies, lassos,
embeddings); a failed check raises from the generator.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path
from unittest import mock

from paritykit import decomposition, games, manifests
from paritykit.automata import acceptance_game, membership
from paritykit.decomposition import (
    ad_from_bounded_pair,
    ad_reachability_check,
    build_ad,
    is_tight,
    memory_product,
    tree_shape,
    validate_ad,
)
from paritykit.errors import NotEven, ParityKitError
from paritykit.games import ADAM, Index, solve, verify_winning
from paritykit.lab import (
    GenParams,
    enumerate_regular_trees,
    random_bounded_pair,
    random_even_graph,
    random_game,
    random_non_even_graph,
    rejecting_vertices,
)
from paritykit.transduction import (
    LIBERAL,
    LITERAL,
    NEVER,
    n_bound_check,
    reg_product,
    synth_from_ad,
)
from paritykit.trees import embed, enumerate_trees, is_universal_for, n_strahler, universal_tree

from corpora import (
    UNIVERSAL_GRID,
    build_corpus,
    composed_corpus,
    large_witness_corpus,
    n_bound_corpus,
    quotient_corpus,
    validate_corpus,
    verify_corpus,
    wide_flag_pair,
    witness_corpus,
)
from oracles import chain_graph


def _error(err):
    return f"{type(err).__name__}: {err}"


def _canon(witness):
    if isinstance(witness, (set, frozenset)):
        return sorted(witness)
    if isinstance(witness, tuple):
        return [_canon(w) for w in witness]
    return witness


def product_slice_answers():
    """Regions and strategies of solve() on six criterion-3 register
    products (acceptance seed, rejecting starts), each certified for both
    players; two exceed 10k vertices, four leave both players a region."""
    base = GenParams(seed=21057, vertex_count=5, priority_cap=4, edge_density=0.5)
    sizes = []
    mixed = 0
    slice_ = ((2, 1, 4, 2), (13, 1, 4, 2), (5, 1, 4, 1), (21, 1, 4, 2), (8, 1, 4, 2), (7, 1, 4, 2))
    for k, lo, hi, n in slice_:
        g = random_non_even_graph(base, salt=k)
        game = reg_product(g, Index(lo, hi), n, starts=sorted(rejecting_vertices(g))).game
        we, wa, se, sa = solve(game)
        sizes.append(len(game.graph.vertices))
        mixed += bool(we) and bool(wa)
        assert we | wa == game.graph.vertices and not (we & wa)
        assert verify_winning(game, se, we)
        assert verify_winning(game, sa, wa, player=ADAM)
        answer = [k, lo, hi, n, sorted(we), sorted(wa), sorted(se.items()), sorted(sa.items())]
        yield f"salt={k} J=[{lo},{hi}] n={n}", json.dumps(answer).encode()
    assert sum(size >= 10_000 for size in sizes) >= 2 and mixed >= 4


def odd_cycle_witness_answers():
    """The lasso (stem, cycle) or None of _odd_cycle_witness for both
    parities on witness_corpus(); every lasso is checked."""
    found = 0
    for i, g in enumerate(witness_corpus()):
        for parity in (1, 0):
            lasso = games._odd_cycle_witness(g, parity)
            if lasso is not None:
                found += 1
                assert lasso.check(g) and max(g.pri[i] for i in lasso.cycle) % 2 == parity
            answer = None if lasso is None else [lasso.stem, lasso.cycle]
            yield f"graph {i} parity {parity}", json.dumps(answer).encode()
    assert found > 300


def odd_cycle_witness_large_answers():
    """The lasso or None of _odd_cycle_witness for both parities on
    large_witness_corpus(): 300-vertex repair loops and strategy views of
    register products; every lasso is checked."""
    found = 0
    for i, (g, view) in enumerate(large_witness_corpus()):
        for parity in (1, 0):
            lasso = games._odd_cycle_witness(g, parity, view)
            if lasso is not None:
                found += 1
                assert lasso.check(g) and max(g.pri[i] for i in lasso.cycle) % 2 == parity
                assert view is None or set(lasso.cycle) <= set(view[2])
            answer = None if lasso is None else [lasso.stem, lasso.cycle]
            yield f"call {i} parity {parity}", json.dumps(answer).encode()
    assert found > 100


def verify_winning_answers():
    """The verdict or error of verify_winning on verify_corpus(), taken
    before it stopped building the strategy subgraph."""
    seen = set()
    for i, (gm, sigma, region, player) in enumerate(verify_corpus()):
        try:
            answer = str(verify_winning(gm, sigma, region, player))
        except ParityKitError as err:
            answer = _error(err)
        seen.add(answer.split(":")[0])
        yield f"call {i}", answer.encode() + b"\n"
    assert seen == {
        "True", "False", "UndefinedChoice", "PreconditionFailed",
        "StrategyEscapesRegion", "TerminalVertex",
    }


def bounded_pair_answers():
    """Every decomposition (as a manifest) and every error that
    ad_from_bounded_pair gives on 3,600 seeded calls, none of them an
    error.  The corpus must reach stars of rank 2 and leftover parts,
    which spies on the construction count."""
    ranks, leftovers = [], []
    star_layers, kids = decomposition._star_layers, decomposition._kids

    def spy_layers(*args):
        tiers, reach = star_layers(*args)
        ranks.append(len(tiers) - 2)
        return tiers, reach

    def spy_kids(g, rest, cap, labels, odd):
        # the construction peels leftover parts by their labelJ values
        if labels is not g.pri:
            leftovers.append(rest)
        return kids(g, rest, cap, labels, odd)

    raised = 0
    with mock.patch.object(decomposition, "_star_layers", spy_layers), \
            mock.patch.object(decomposition, "_kids", spy_kids):
        for seed in range(150):
            m = seed % 3
            for vertices in (4, 5, 6, 7):
                for j in (1, 2, 3):
                    p = GenParams(
                        seed=seed, vertex_count=vertices, priority_cap=4, index_j=(1, 2 * j)
                    )
                    pair = random_bounded_pair(p, m)
                    for n in (m, m + 1):
                        try:
                            answer = manifests.dumps(ad_from_bounded_pair(pair, n, j))
                        except ParityKitError as err:
                            raised += 1
                            answer = _error(err)
                        yield f"seed={seed} vertices={vertices} j={j} n={n}", answer.encode()
    assert max(ranks) >= 2 and leftovers
    assert raised == 0


def build_ad_answers():
    """Every decomposition, error and lasso of build_ad on build_corpus(),
    taken before build_ad stopped checking evenness up front."""
    kinds = {}
    for i, (g, h) in enumerate(build_corpus()):
        try:
            answer = manifests.dumps(build_ad(g, h))
        except ParityKitError as err:
            answer = _error(err)
            if isinstance(err, NotEven):
                answer += f" {err.lasso.stem} {err.lasso.cycle}"
        kind = answer.split(":")[0]
        kinds[kind] = kinds.get(kind, 0) + 1
        yield f"case {i}", answer.encode() + b"\n"
    assert kinds["NotEven"] >= 150 and kinds['{"format"'] >= 250
    assert kinds["PreconditionFailed"] >= 50 and kinds["PriorityOutOfRange"] >= 20


def validate_ad_answers():
    """Every (verdict, clause, witness) of validate_ad on validate_corpus(),
    taken before it moved to one pass per view."""
    clauses = set()
    for i, (g, d) in enumerate(validate_corpus()):
        res = validate_ad(g, d)
        clauses.add(res.clause)
        yield f"case {i}", f"{res.ok} {res.clause} {_canon(res.witness)}\n".encode()
    assert len(clauses) >= 14


def eq_hash_answers():
    """The hash of every decomposition of validate_corpus() and of its
    children, whether it equals the case before it, and the hash of chain
    decompositions; taken while AttractorDecomposition and AdChild still
    had the recursive dataclass __eq__ and __hash__."""
    previous = None
    equal = 0
    for i, (_, d) in enumerate(validate_corpus()):
        same = d == previous
        equal += same
        kids = [hash(c) for c in d.children]
        yield f"case {i}", f"{hash(d)} {kids} {same} {d != previous}\n".encode()
        previous = d
    for k in (1, 2, 40, 120):
        g = chain_graph(k)
        d = build_ad(g, 2 * (k - 1))
        assert d == build_ad(g, 2 * (k - 1))
        yield f"chain {k}", f"{k} {hash(d)}\n".encode()
    assert equal >= 100


def walks_answers():
    """Tree shape (with its DOT), width, tightness, reachability check and
    DOT export of build_ad's decompositions of build_corpus(), and the
    register picks of a seeded handful of synth_from_ad strategies; taken
    before the walks over decompositions became generators."""
    built = 0
    for i, (g, h) in enumerate(build_corpus()):
        try:
            d = build_ad(g, h)
        except ParityKitError:
            continue
        built += 1
        shape = tree_shape(d)
        assert manifests.loads(manifests.dumps(d)) == d
        answer = (
            f"{shape.to_brackets()} {d.width()} {is_tight(g, d)} {ad_reachability_check(g, d)}\n"
            + manifests.export_dot(d)
            + manifests.export_dot(shape)
        )
        yield f"case {i}", answer.encode()
    for seed in range(12):
        n = 1 + seed % 2
        g = random_even_graph(GenParams(seed=seed, vertex_count=6, priority_cap=4))
        h = max(g.pri) + max(g.pri) % 2
        sigma = synth_from_ad(g, build_ad(g, h), n).sigma
        yield f"synth seed={seed}", f"{sorted(sigma.items())}\n".encode()
    assert built >= 250


def wide_memory_product_answers():
    """The memory product of wide_flag_pair(), taken when its 445 x 445
    flag pairs still took 13 s."""
    mp = memory_product(wide_flag_pair())
    g = mp.pair.graph
    product = [[[v, hex(m)] for v, m in mp.decode], g.src, g.dst, mp.pair.label_i,
               mp.pair.label_j, sorted(mp.initial.items())]
    yield "I=[0,890] J=[1,890]", json.dumps(product).encode()


def acceptance_game_answers():
    """The full acceptance game of every pair of quotient_corpus(), taken
    before membership moved to the quotient game."""
    automata, trees = quotient_corpus()
    for i, a in enumerate(automata):
        for j, t in enumerate(trees):
            game = acceptance_game(a, t).game
            yield f"automaton {i} tree {j}", manifests.dumps(game).encode() + b"\n"


def compose_answers():
    """The manifests of composed_corpus(), taken before compose_transducer
    played each register round once."""
    for k, n, composed in composed_corpus():
        yield f"automaton {k} n={n}", manifests.dumps(composed).encode() + b"\n"


def membership_answers():
    """Membership of the 26 regular trees of <= 2 nodes in each automaton of
    composed_corpus(), taken before membership moved to the quotient game.
    The digest is of the whole answer list as JSON, so the calls' chunks
    are "[true", ", false", ... and the last one closes the list."""
    trees = enumerate_regular_trees(2)
    answers = [
        (f"automaton {k} n={n} tree {j}", membership(composed, t))
        for k, n, composed in composed_corpus()
        for j, t in enumerate(trees)
    ]
    assert any(ok for _, ok in answers) and not all(ok for _, ok in answers)
    last = len(answers) - 1
    for i, (label, ok) in enumerate(answers):
        chunk = ("[" if i == 0 else ", ") + json.dumps(ok) + ("]" if i == last else "")
        yield label, chunk.encode()


def embed_answers():
    """The mapping (sorted) or None of every query of <= 6 nodes embedded
    into every host of <= 8 nodes, in enumeration order; every embedding is
    checked.  Taken before embed pruned by cached size and depth and ran on
    an explicit stack."""
    queries = enumerate_trees(6, 6, 6)
    hosts = enumerate_trees(8, 8, 8)
    assert (len(queries), len(hosts)) == (65, 626)
    found = 0
    for i, t in enumerate(queries):
        for j, h in enumerate(hosts):
            e = embed(t, h)
            if e is not None:
                found += 1
                assert e.check(t, h)
            answer = None if e is None else sorted(e.mapping.items())
            yield f"query {i} host {j}", f"{answer}\n".encode()
    assert found > 0


def universal_answers():
    """is_universal_for's (ok, first miss) over criterion 7's 54-point grid,
    once with the family criterion 7 checks (Strahler number <= k), which
    must all embed, and once with the whole family."""
    assert len(UNIVERSAL_GRID) == 54
    missed = 0
    for n, k, d, w in UNIVERSAL_GRID:
        u = universal_tree(n, k, d, w)
        family = enumerate_trees(1 + w + w**2 + w**3, d, w)
        bounded = [t for t in family if n_strahler(t, n) <= k]
        for kind, candidates in (("bounded", bounded), ("family", family)):
            ok, bad = is_universal_for(u, candidates)
            if kind == "bounded":
                assert (ok, bad) == (True, None)
            missed += bad is not None
            answer = (ok, None if bad is None else bad.to_brackets())
            yield f"n={n} k={k} d={d} w={w} {kind}", f"{(n, k, d, w)} {answer}\n".encode()
    assert missed > 0


def n_bound_answers():
    """(ok, odd, even, segments) of n_bound_check on n_bound_corpus() for n
    in {0, 1, 2, 5}."""
    verdicts = []
    for i, pair in enumerate(n_bound_corpus()):
        for n in (0, 1, 2, 5):
            ok, witness = n_bound_check(pair, n)
            verdicts.append(ok)
            answer = [ok] + ([None] * 3 if ok else [witness.odd, witness.even, witness.segments])
            yield f"pair {i} n={n}", json.dumps(answer).encode()
    assert len(verdicts) >= 1000 and verdicts.count(True) > 100 and verdicts.count(False) > 100


def product_dot_answers():
    """The DOT export of seeded register products: graph and game bases,
    each reset rule, several output indices J and counter bounds n, input
    indices shifted up by 2 and ones without an even priority."""
    seen = set()
    for seed in range(8):
        p = GenParams(seed=seed, vertex_count=2 + seed % 2, priority_cap=3)
        g = random_non_even_graph(p, salt=seed)
        game = random_game(p, salt=seed)
        bases = {
            "graph": g,
            "game": game,
            "shifted": g.with_priorities([q + 2 for q in g.pri], g.index.shift(2)),
            "odd-only": g.with_priorities([1] * len(g.pri), Index(1, 1)),
            "shifted-odd-only": g.with_priorities([3] * len(g.pri), Index(3, 3)),
        }
        for kind, base in bases.items():
            for k, rule in enumerate((LIBERAL, LITERAL, NEVER)):
                J = (Index(1, 2), Index(1, 4), Index(2, 4), Index(0, 3))[(seed + k) % 4]
                n = (seed // 4 + k) % (3 if J.hi < 4 else 2)
                product = reg_product(base, J, n, rule=rule)
                seen.add((kind, rule))
                label = f"seed={seed} {kind} J=[{J.lo},{J.hi}] n={n} rule={rule}"
                yield label, manifests.export_dot(product).encode()
    assert len(seen) == 15


# name -> (sha1 of the answers in order, generator of (label, answer))
PINS = {
    "product_slice": ("fd05fd30a6d40d64dcabd22928bf124762504d88", product_slice_answers),
    "odd_cycle_witness": ("07faf17797442d069e59e55bd8b28a445d334a4e", odd_cycle_witness_answers),
    "odd_cycle_witness_large": (
        "2d6ff966fa175af63af497f9477d3b100f9ac0a3", odd_cycle_witness_large_answers
    ),
    "verify_winning": ("19a9fb3622bc524cd020dfb37271b7ead7785d47", verify_winning_answers),
    "bounded_pair": ("9898bda9ff2e7fcad340521c8e4938409afedfc4", bounded_pair_answers),
    "build_ad": ("0791468d9419a5295adbce6b13f14827347b5621", build_ad_answers),
    "validate_ad": ("063c197f0fa83983174277ec8ea2a00c4820e0ea", validate_ad_answers),
    "eq_hash": ("1b4f08c54dc58c3213603ce90f4137e2eab19f78", eq_hash_answers),
    "walks": ("c3e923521dee2c0156f0d0a047bed1bb0a0f1140", walks_answers),
    "wide_memory_product": (
        "686d935acf1bbf8f61ab965d2f45baa3ae96bb4d", wide_memory_product_answers
    ),
    "acceptance_game": ("366126a0c890cc1d7fc1e88db5222d8807f0bfc0", acceptance_game_answers),
    "compose": ("989c01e7dadf04d447eff9e41b04f13743e1d92d", compose_answers),
    "membership": ("284d64731f26187dd9181cccda1df751d0e83f02", membership_answers),
    "embed": ("60ef92ed2fe750ce3b98431678c668c5813e8029", embed_answers),
    "universal": ("3b4d8c9e553adf21fb5e581f88f586ba01c544ea", universal_answers),
    "n_bound": ("f2b83602eb8ba34bd7491040bd61396efe97392c", n_bound_answers),
    "product_dot": ("150d36603583784bb1440d813c921465eccdff2e", product_dot_answers),
}


def calls(name):
    """Pin `name`'s answers as {label: bytes}, in call order."""
    out = {}
    for label, answer in PINS[name][1]():
        if label in out:
            raise ValueError(f"{name}: label {label!r} repeats")
        out[label] = answer
    return out


def sha1(answers):
    digest = hashlib.sha1()
    for answer in answers.values():
        digest.update(answer)
    return digest.hexdigest()


def changed(old, new):
    """Labels whose answer differs between two {label: bytes} maps, or that
    only one of them has: those of `old` in its order, then those new."""
    return [label for label in {**old, **new} if old.get(label) != new.get(label)]


def save(directory):
    directory.mkdir(parents=True, exist_ok=True)
    for name in PINS:
        answers = {label: answer.decode() for label, answer in calls(name).items()}
        (directory / f"{name}.json").write_text(json.dumps(answers, indent=0))


def load(directory, name):
    """The answers `save` wrote for pin `name`; none if it wrote no file."""
    path = directory / f"{name}.json"
    if not path.exists():
        return {}
    return {label: text.encode() for label, text in json.loads(path.read_text()).items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description="save or diff every answer pin, call by call")
    parser.add_argument("command", choices=("save", "diff"))
    parser.add_argument("directory", type=Path)
    args = parser.parse_args(argv)
    if args.command == "save":
        save(args.directory)
        return 0
    differ = False
    for name in PINS:
        for label in changed(load(args.directory, name), calls(name)):
            print(f"{name}: {label}")
            differ = True
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
