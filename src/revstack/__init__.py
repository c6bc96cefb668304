"""Exact combinatorics of stack sorting and revstack sorting.

The library implements the two sorting operators, the pattern and zigzag
characterisations of how many passes a permutation needs, the closed-form
descent polynomials for the extreme pass counts, exact real-root
isolation for those polynomials, and exhaustive (shardable) verification
of the whole story at desk scale.
"""
from .perms import (
    check_permutation,
    deg_revstack,
    deg_stack,
    descents,
    format_permutation,
    is_identity,
    is_permutation,
    parse_permutation,
    reverse,
    revstack_sort_sim,
    stack_sort_sim,
)
from .patterns import (
    Occurrence,
    PatternSpec,
    avoids_132,
    check_sorted_132_witnesses,
    contains_barred,
    contains_classical,
    is_member_S2,
    is_member_T2,
    parse_pattern,
)
from .zigzag import (
    Zigzag,
    find_uninterrupted_zigzag,
    find_zigzag,
    max_zigzag_degree,
    zigzag_degrees,
)
from .polynomials import (
    IntPoly,
    count_revstack_nm2,
    count_revstack_nm3,
    count_stack_nm2,
    count_stack_nm3,
    d_poly,
    eulerian_poly,
    format_poly,
    is_log_concave,
    is_symmetric,
    is_unimodal,
    l_poly,
    narayana_poly,
    w_revstack_nm2,
    w_revstack_nm3,
)
from .roots import RootReport, check_interlacing, real_roots
from .trees import (
    TreeWalk,
    h_details,
    injection_h,
    tree_walk,
)
from .enumeration import (
    DescentTable,
    cached_descent_table,
    classify_degree_nm2,
    descent_table,
    reproduce_appendix,
    verify_steingrimsson,
    verify_theorems,
    zigzag_free_table,
)

__version__ = "0.1.0"
