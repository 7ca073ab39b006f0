"""Parity games, attractor decompositions, register transduction games,
n-Strahler numbers, universal trees, and parity tree automata at desk scale."""

from .games import (
    ADAM,
    EVE,
    Edge,
    Index,
    Lasso,
    ParityGame,
    ParityGraph,
    attractor_vertices,
    check_even,
    is_even,
    player_attractor,
    solve,
    strategy_graph,
    verify_winning,
)
from .decomposition import (
    AdChild,
    AttractorDecomposition,
    LabellingPair,
    MemoryProduct,
    SegmentedPath,
    ad_from_bounded_pair,
    ad_reachability_check,
    build_ad,
    is_tight,
    memory_product,
    n_bound_check,
    tree_shape,
    validate_ad,
)
from .trees import (
    LEAF,
    Embedding,
    OrderedTree,
    depth,
    embed,
    enumerate_trees,
    is_universal_for,
    n_strahler,
    universal_tree,
)
from .transduction import (
    LIBERAL,
    LITERAL,
    NEVER,
    ProductStrategy,
    RegProduct,
    eve_wins_reg,
    reg_product,
    strategy_from_bounded_pair,
    synth_from_ad,
)
from .automata import (
    NPTA,
    AcceptanceGame,
    GuidingFunction,
    RegularTree,
    RunGraph,
    acceptance_game,
    accepting_run,
    compose_transducer,
    guided_pair_bound_check,
    guided_run,
    membership,
    run_graph,
)
from .lab import (
    GenParams,
    TheoremReport,
    brute_solve,
    random_bounded_pair,
    random_even_graph,
    random_game,
    run_theorem_battery,
)

__version__ = "0.1.0"
