import itertools
import json
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import textwrap
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import gamma_vector, precedence_by_value_pairs, scan_zigzag, walk_patterns
from revstack.enumeration import (
    CACHE_FORMAT_VERSION,
    SORTERS,
    DescentTable,
    _check_closed_forms,
    _check_table_structure,
    _degree,
    _degree_array,
    _digest,
    _is_sound,
    _with_prefix,
    cached_descent_table,
    classify_degree_nm2,
    degree_nm2_classes,
    descent_table,
    load_reference_tables,
    reproduce_appendix,
    resolve_cache_dir,
    verify_steingrimsson,
    verify_theorems,
    zigzag_free_table,
)
from revstack import enumeration, patterns, roots, trees, zigzag
from revstack.perms import (
    deg_revstack,
    deg_stack,
    descents,
    is_identity,
    revstack_sort_sim,
    stack_sort_sim,
)
from revstack.polynomials import (
    IntPoly,
    count_revstack_nm2,
    count_revstack_nm3,
    eulerian_poly,
    w_revstack_nm3,
)
from revstack.split import (
    _BITS,
    _array_shard,
    _images,
    _offsets,
    _patterns,
    _rank,
    _split_shard,
)


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def two_stack_sortable(n):
    """Zeilberger's count of two-stack-sortable permutations of size n."""
    return 2 * math.factorial(3 * n) // (math.factorial(n + 1) * math.factorial(2 * n + 1))


def counted_calls(monkeypatch, fn):
    """Replace fn in every revstack namespace that binds it by a wrapper
    that counts its calls; returns the one-element count list."""
    count = [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "revstack" or name.startswith("revstack."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return count


def moved_cells(table, src, dst, col, k=1):
    """table with k permutations of descent count col moved from degree
    src to degree dst."""
    deg_des = [list(row) for row in table.deg_des]
    deg_des[src][col] -= k
    deg_des[dst][col] += k
    return DescentTable(table.n, table.sorter, tuple(map(tuple, deg_des)))


SORT_AND_DEGREE = {"revstack": (revstack_sort_sim, deg_revstack),
                   "stack": (stack_sort_sim, deg_stack)}


def permutations_of(m):
    return st.permutations(range(1, m + 1)).map(tuple)


def standardised(word):
    """The pattern of word: each value replaced by its rank, 1..len(word)."""
    order = sorted(word)
    return tuple(order.index(v) + 1 for v in word)


def oracle_counts(n, sorter):
    """deg_des of S_n by one sorting pass and one array lookup per
    permutation, the sweep the split kernel replaced."""
    sort, _ = SORT_AND_DEGREE[sorter]
    prev = _degree_array(n - 1, sorter)
    counts = [[0] * n for _ in range(n)]
    for w in itertools.permutations(range(1, n + 1)):
        counts[_degree(w, sort(w), prev)][descents(w)] += 1
    return tuple(map(tuple, counts))


def signed(blob):
    """A cache entry whose digest matches its (possibly edited) cells, so
    that only the soundness check can reject it."""
    return {**blob, "sha256": _digest(blob["deg_des"])}


def recording(get_table):
    """A table(n, sorter) source that logs every request it serves."""
    asked = []

    def table(n, sorter):
        asked.append((n, sorter))
        return get_table(n, sorter)

    return table, asked


class TestDescentTable:
    def test_reference_row(self, get_table):
        table = get_table(5, "revstack")
        assert table.row(2).coeffs == (0, 1, 20, 49, 20, 1)
        assert table.row(0).coeffs == (0, 1)
        assert table.row(4) == eulerian_poly(5)

    def test_counts(self, get_table):
        table = get_table(5, "revstack")
        assert [table.count(t) for t in range(5)] == [1, 42, 91, 116, 120]
        assert table.count(3) == count_revstack_nm2(5)
        assert table.count(2) == count_revstack_nm3(5)

    def test_one_pass_is_catalan(self, get_table):
        for n in range(2, 8):
            assert get_table(n, "revstack").count(1) == catalan(n)
            assert get_table(n, "stack").count(1) == catalan(n)

    def test_two_pass_is_zeilberger(self, get_table):
        # the two sorters' two-pass rows agree, so the oracle covers both
        for n in range(3, 9):
            assert get_table(n, "stack").count(2) == two_stack_sortable(n)
            assert get_table(n, "revstack").count(2) == two_stack_sortable(n)

    def test_row_out_of_range(self, get_table):
        with pytest.raises(ValueError):
            get_table(5, "revstack").row(5)

    def test_json_schema(self, get_table):
        blob = get_table(4, "revstack").to_json()
        assert blob["n"] == 4
        assert blob["sorter"] == "revstack"
        assert [r["t"] for r in blob["rows"]] == [0, 1, 2, 3]
        assert blob["counts"][-1] == 24

    def test_bad_sorter_and_bounds(self):
        with pytest.raises(ValueError):
            descent_table(5, "bubble")
        with pytest.raises(ValueError):
            descent_table(enumeration.MAX_N + 1)
        with pytest.raises(ValueError):
            descent_table(0)

    def test_sharding_partitions(self):
        # the n(n-1) two-letter prefix shards, read in shard order, are S_5
        # in lexicographic order, each shard one prefix
        assert enumeration._prefix_shards(5) == 20
        shards = [list(_with_prefix(5, i)) for i in range(1, 21)]
        assert all(len(shard) == 6 and len({w[:2] for w in shard}) == 1 for shard in shards)
        assert [w for shard in shards for w in shard] == list(itertools.permutations(range(1, 6)))
        assert enumeration._prefix_shards(1) == 1
        assert list(_with_prefix(1, 1)) == [(1,)]

    def test_determinism_across_jobs(self):
        serial = descent_table(6, "revstack", jobs=1)
        for jobs in (2, 4):
            assert descent_table(6, "revstack", jobs=jobs) == serial

    @pytest.mark.parametrize("sorter", enumeration.SORTERS)
    def test_n8_agrees_across_jobs(self, sorter):
        table = descent_table(8, sorter, jobs=1)
        assert descent_table(8, sorter, jobs=2) == table
        assert _is_sound(table)

    def test_descent_counts_vector(self, get_table):
        t = get_table(5, "revstack")
        assert t.descent_counts(2) == [1, 20, 49, 20, 1]

    def test_n8_row3(self, get_table):
        assert get_table(8, "revstack").row(3).coeffs == (
            0, 1, 154, 2587, 9490, 9490, 2587, 154, 1
        )


class TestSplitKernel:
    @pytest.mark.parametrize("sorter", SORTERS)
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_matches_the_per_permutation_oracle(self, sorter, jobs):
        for n in range(1, 9):
            assert descent_table(n, sorter, jobs).deg_des == oracle_counts(n, sorter), n

    @pytest.mark.extended
    @pytest.mark.parametrize("sorter", SORTERS)
    @pytest.mark.parametrize("n", [9, 10])
    def test_matches_the_oracle_at_n9_n10(self, n, sorter):
        oracle = oracle_counts(n, sorter)
        for jobs in (1, 2):
            assert descent_table(n, sorter, jobs).deg_des == oracle

    @pytest.mark.parametrize("sorter", SORTERS)
    def test_pools_agree_with_serial(self, sorter):
        # 9 is the smallest size whose array sweep uses a pool, 11 the
        # smallest whose table sweep does
        enumeration._DEGREE_ARRAYS.clear()
        array, table = _degree_array(9, sorter, jobs=2), descent_table(11, sorter, jobs=2)
        assert descent_table(11, sorter, jobs=1) == table  # from the same arrays
        assert _is_sound(table)
        enumeration._DEGREE_ARRAYS.clear()
        assert _degree_array(9, sorter) == array

    @pytest.mark.parametrize("sorter", SORTERS)
    def test_patterns_match_the_walk(self, sorter):
        for a in range(1, 9):
            assert _patterns(a) == walk_patterns(a, sorter, _BITS), a

    @pytest.mark.extended
    @pytest.mark.parametrize("sorter", SORTERS)
    @pytest.mark.parametrize("a", [9, 10])
    def test_patterns_match_the_walk_at_a9_a10(self, a, sorter):
        assert _patterns(a) == walk_patterns(a, sorter, _BITS)

    @pytest.mark.parametrize("a", [*range(1, 11), pytest.param(11, marks=pytest.mark.extended)])
    def test_fibres_are_palindromic_and_sum_to_eulerian(self, a):
        # the descent polynomial of each fibre of S is palindromic about
        # (a - 1) / 2 (valley hopping preserves S: Branden, 2008), and the
        # fibres partition S_a; the array shards number the patterns by
        # this map beyond a = 8, where the walk stops
        mask = (1 << _BITS) - 1
        total = [0] * a
        for y, poly in _patterns(a).items():
            coeffs = [(poly >> (_BITS * j)) & mask for j in range(a)]
            assert poly >> (_BITS * a) == 0 and any(coeffs), y
            assert coeffs == coeffs[::-1], y
            total = [s + c for s, c in zip(total, coeffs)]
        assert [0, *total] == list(eulerian_poly(a).coeffs)

    @pytest.mark.parametrize("a", [*range(1, 11), pytest.param(11, marks=pytest.mark.extended)])
    def test_fibres_are_gamma_nonnegative(self, a):
        # valley hopping acts on each fibre of S, so each fibre's descent
        # polynomial has a nonnegative gamma-vector (Branden, 2008); the
        # distinct polynomials are few (122 at a = 10)
        mask = (1 << _BITS) - 1
        for poly in set(_patterns(a).values()):
            coeffs = [(poly >> (_BITS * j)) & mask for j in range(a)]
            assert min(gamma_vector(coeffs)) >= 0, coeffs

    def test_gamma_vector(self):
        # 1 + 11t + 11t^2 + t^3 = (1 + t)^3 + 8t(1 + t)
        assert gamma_vector([1, 11, 11, 1]) == [1, 8]
        assert gamma_vector([0, 1, 0]) == [0, 1]
        with pytest.raises(AssertionError):
            gamma_vector([1, 2])

    def test_packed_coefficients_hold_the_largest_count(self):
        # a table coefficient counts at most n! permutations
        assert math.factorial(enumeration.MAX_N) < 1 << _BITS

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12).flatmap(permutations_of), st.sampled_from(SORTERS))
    def test_rank_splits_into_head_offset_and_tail_rank(self, w, sorter):
        # rank(X(w)[:-1]) = off + rank(std X(tail)), where off adds to the
        # head's own weighed Lehmer code, for each tail value u, the weight
        # of the head positions above u
        sort, _ = SORT_AND_DEGREE[sorter]
        n = len(w)
        left, right = w[:w.index(n)], w[w.index(n) + 1:]
        head, tail = (right, left) if sorter == "revstack" else (left, right)
        weights = [math.factorial(n - 2 - i) for i in range(len(head))]
        base, above = _offsets(sort(standardised(head)), weights)
        off = base + sum(above[sum(h < u for h in head)] for u in tail)
        assert _rank(sort(w)[:-1]) == off + _rank(sort(standardised(tail)))

    @pytest.mark.parametrize("sorter", SORTERS)
    def test_end_shards_are_the_smaller_table_moved(self, sorter):
        # the shard n R (i = 1) and the shard L n (i = n) against the
        # iterated degree of each of their permutations
        _, degree = SORT_AND_DEGREE[sorter]
        for n in range(2, 9):
            smaller = descent_table(n - 1, sorter).deg_des
            prev = _degree_array(n - 1, sorter)
            rest = list(itertools.permutations(range(1, n)))
            for i, words in ((1, [(n, *u) for u in rest]), (n, [(*u, n) for u in rest])):
                expected = [[0] * n for _ in range(n)]
                for w in words:
                    expected[degree(w)][descents(w)] += 1
                assert _split_shard(n, i, prev, sorter, smaller) == expected, (n, i)

    @pytest.mark.parametrize("sorter", SORTERS)
    def test_each_shard_counts_its_position_of_n(self, sorter):
        # the table sums the shards, so a shard that counts the wrong
        # position of n can hide behind its mirror image
        sort, _ = SORT_AND_DEGREE[sorter]
        for n in range(3, 9):
            smaller = descent_table(n - 1, sorter).deg_des
            prev = _degree_array(n - 1, sorter)
            expected = [[[0] * n for _ in range(n)] for _ in range(n)]
            for w in itertools.permutations(range(1, n + 1)):
                expected[w.index(n)][_degree(w, sort(w), prev)][descents(w)] += 1
            for i in range(1, n + 1):
                assert _split_shard(n, i, prev, sorter, smaller) == expected[i - 1], (n, i)

    def test_tables_do_not_depend_on_the_start_method(self):
        # spawned workers share no memory with the parent: the degree
        # arrays reach them only through the pool initializer, and each
        # worker builds the sorted-pattern levels its shards read
        code = textwrap.dedent("""
            import multiprocessing
            from revstack import enumeration
            if __name__ == "__main__":
                multiprocessing.set_start_method("spawn")
                for sorter in enumeration.SORTERS:
                    array = enumeration._degree_array(9, sorter, jobs=2)
                    table = enumeration.descent_table(11, sorter, jobs=2)
                    same = enumeration.descent_table(11, sorter, jobs=1) == table
                    enumeration._DEGREE_ARRAYS.clear()
                    print(same and enumeration._degree_array(9, sorter) == array)
        """)
        src = Path(enumeration.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "True"]

    def test_only_a_pooled_sweep_loads_the_pool_machinery(self):
        # a fresh interpreter, since pytest's own may hold multiprocessing:
        # the S_8 table is serial at any jobs (the arrays pool from m = 9 and
        # the table shards from n = 11), and verify_theorems(5, 2) pools
        code = textwrap.dedent("""
            import contextlib, io, sys
            from revstack import cli
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["table", "--n", "8", "--no-cache", "--jobs", "2"])
            print(code, "concurrent.futures" in sys.modules, "multiprocessing" in sys.modules)
            import revstack
            revstack.verify_theorems(5, 2)
            print("concurrent.futures.process" in sys.modules)
        """)
        src = Path(enumeration.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False", "False", "True"]

    def test_start_up_loads_no_dataclass_or_inspect_machinery(self):
        # a fresh interpreter, since pytest's own holds inspect; under -S no
        # site .pth file preloads importlib.resources either
        code = textwrap.dedent("""
            import sys
            import revstack, revstack.cli
            revstack.enumeration.load_reference_tables()
            print(*(m in sys.modules for m in ("dataclasses", "inspect", "importlib.resources")))
        """)
        src = Path(enumeration.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        for flags, want in (([], ["False", "False"]), (["-S"], ["False", "False", "False"])):
            proc = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.split()[:len(want)] == want


class TestDegreeArray:
    def test_rank_enumerates_small_sizes_in_order(self):
        for m in range(8):
            words = itertools.permutations(range(1, m + 1))
            assert [_rank(w) for w in words] == list(range(math.factorial(m)))

    @given(st.integers(1, 12).flatmap(
        lambda m: st.tuples(permutations_of(m), permutations_of(m))
    ))
    def test_rank_is_an_order_isomorphism_onto_the_factorials(self, pair):
        # strictly increasing from S_m (m! elements) into range(m!) forces a
        # bijection
        u, v = pair
        assert 0 <= _rank(u) < math.factorial(len(u))
        assert (_rank(u) < _rank(v)) == (u < v)
        assert (_rank(u) == _rank(v)) == (u == v)

    @pytest.mark.parametrize("sorter", SORTERS)
    def test_array_shards_hold_each_position_of_m_in_rank_order(self, sorter):
        _, degree = SORT_AND_DEGREE[sorter]
        for m in range(2, 8):
            prev = _degree_array(m - 1, sorter)
            words = list(itertools.permutations(range(1, m + 1)))
            for k in range(m):
                expected = bytes(degree(w) for w in words if w[k] == m)
                assert _array_shard(m, k + 1, prev, sorter) == expected, (m, k)

    @pytest.mark.parametrize("sorter", SORTERS)
    def test_array_shard_with_wide_rows(self, sorter):
        # |R| = 7 has 326 sorted patterns, more than one translate table
        # holds, so each row is mapped through R's images instead
        _, degree = SORT_AND_DEGREE[sorter]
        prev = _degree_array(8, sorter)
        expected = bytes(degree((a, 9, *rest)) for a in range(1, 9)
                         for rest in itertools.permutations([v for v in range(1, 9) if v != a]))
        assert len(_patterns(7)) > 256
        assert _array_shard(9, 2, prev, sorter) == expected

    @pytest.mark.parametrize("sorter", SORTERS)
    def test_images_index_the_sorted_patterns(self, sorter):
        sort, _ = SORT_AND_DEGREE[sorter]
        for a in range(9):
            index = {y: j for j, y in enumerate(_patterns(a))}
            words = itertools.permutations(range(1, a + 1))
            assert list(_images(a, sorter)) == [index[sort(q)] for q in words], a

    @pytest.mark.parametrize("sorter", SORT_AND_DEGREE)
    def test_array_is_the_iterated_degree(self, sorter):
        _, degree = SORT_AND_DEGREE[sorter]
        for m in range(9):
            words = itertools.permutations(range(1, m + 1))
            assert list(_degree_array(m, sorter)) == [degree(w) for w in words], m

    @pytest.mark.parametrize("sorter", SORT_AND_DEGREE)
    @pytest.mark.parametrize("n", [9, 10, pytest.param(11, marks=pytest.mark.extended)])
    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_recursion_matches_the_iterated_degree(self, n, sorter, data):
        w = data.draw(permutations_of(n))
        assume(not is_identity(w))
        sort, degree = SORT_AND_DEGREE[sorter]
        assert 1 + _degree_array(n - 1, sorter)[_rank(sort(w)[:-1])] == degree(w)


class TestCache:
    def test_round_trip(self, tmp_path):
        cold = cached_descent_table(5, "revstack", cache_dir=tmp_path)
        assert (tmp_path / "table-revstack-5.json").exists()
        warm = cached_descent_table(5, "revstack", cache_dir=tmp_path)
        assert warm == cold == descent_table(5, "revstack")

    def test_corrupt_entry_recomputed(self, tmp_path):
        path = tmp_path / "table-revstack-4.json"
        path.write_text("{not json")
        table = cached_descent_table(4, "revstack", cache_dir=tmp_path)
        assert table == descent_table(4, "revstack")
        assert json.loads(path.read_text())["format_version"] == CACHE_FORMAT_VERSION

    def test_version_mismatch_recomputed(self, tmp_path):
        cached_descent_table(4, "revstack", cache_dir=tmp_path)
        path = tmp_path / "table-revstack-4.json"
        blob = json.loads(path.read_text())
        blob["format_version"] = -1
        blob["deg_des"] = [[9] * 4 for _ in range(4)]
        path.write_text(json.dumps(blob))
        table = cached_descent_table(4, "revstack", cache_dir=tmp_path)
        assert table == descent_table(4, "revstack")

    def test_tampered_cell_recomputed(self, tmp_path):
        cached_descent_table(5, "revstack", cache_dir=tmp_path)
        path = tmp_path / "table-revstack-5.json"
        blob = json.loads(path.read_text())
        blob["deg_des"][2][1] += 7
        path.write_text(json.dumps(blob))
        table = cached_descent_table(5, "revstack", cache_dir=tmp_path)
        assert table == descent_table(5, "revstack")
        assert table.count(4) == 120
        assert json.loads(path.read_text())["deg_des"] == [list(r) for r in table.deg_des]

    @pytest.mark.parametrize("deg_des", [
        [[0, 1, 0], [1, 2, 0], [0, 1, 1]],    # row(0) is not x
        [[1, 0, 0], [1, 2, 0], [0, 1, 1]],    # last row is not Eulerian
        [[1, 0], [0, 4]],                     # not 3 x 3
        [[1, 0, 0], [0, 3.0, 1], [0, 1, 0]],  # not integers
        [[1, 0, 0], [0, 2, 0], [0, 2, 1]],    # cells moved between degree rows
    ])
    def test_unsound_entry_recomputed(self, tmp_path, deg_des):
        path = tmp_path / "table-revstack-3.json"
        path.write_text(json.dumps(signed({"format_version": CACHE_FORMAT_VERSION, "n": 3,
                                           "sorter": "revstack", "deg_des": deg_des})))
        table = cached_descent_table(3, "revstack", cache_dir=tmp_path)
        assert table == descent_table(3)
        assert all(type(c) is int for row in table.deg_des for c in row)
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("sorter, n, src, dst, col", [
        ("stack", 4, 1, 2, 1), ("revstack", 4, 2, 3, 1), ("stack", 6, 3, 4, 1),
        ("revstack", 7, 4, 5, 1), ("revstack", 7, 3, 2, 3),
    ], ids=["stack-4-1", "revstack-4-2", "stack-6-3", "revstack-7-4", "revstack-7-3"])
    def test_cell_moved_between_degree_rows_recomputed(self, tmp_path, sorter, n, src, dst, col):
        # One permutation moves from degree src to dst in its descent
        # column: only a checked row can see it, here t = 1 (Narayana),
        # t = n-2 or t = n-3 (the closed forms and West's counts), or the
        # unpinned revstack row t = 2 at n = 7 (the packaged reference rows).
        cached_descent_table(n, sorter, cache_dir=tmp_path)
        path = tmp_path / f"table-{sorter}-{n}.json"
        blob = json.loads(path.read_text())
        blob["deg_des"][src][col] -= 1
        blob["deg_des"][dst][col] += 1
        path.write_text(json.dumps(signed(blob)))
        assert cached_descent_table(n, sorter, cache_dir=tmp_path) == descent_table(n, sorter)

    def test_digest_mismatch_recomputed(self, tmp_path):
        # a stack cell moved between the unpinned degree rows 2 and 3 keeps
        # the table sound; only the digest sees the change
        table = cached_descent_table(6, "stack", cache_dir=tmp_path)
        path = tmp_path / "table-stack-6.json"
        blob = json.loads(path.read_text())
        assert blob["sha256"] == _digest(table.deg_des)
        blob["deg_des"][2][2] -= 1
        blob["deg_des"][3][2] += 1
        path.write_text(json.dumps(blob))
        assert _is_sound(moved_cells(table, 2, 3, 2))
        assert cached_descent_table(6, "stack", cache_dir=tmp_path) == table
        assert json.loads(path.read_text())["deg_des"] == [list(r) for r in table.deg_des]

    def test_env_var_resolution(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PERMSORT_CACHE_DIR", str(tmp_path / "envcache"))
        assert resolve_cache_dir() == tmp_path / "envcache"
        assert resolve_cache_dir(tmp_path / "flag") == tmp_path / "flag"


class TestSteingrimsson:
    def test_n5(self, get_table):
        report = verify_steingrimsson(5, table=get_table)
        assert report.ok
        by_t = {r.t: r for r in report.rows}
        assert by_t[3].stack_count == 114
        assert by_t[3].revstack_count == 116
        assert by_t[3].strict
        assert by_t[4].stack_count == by_t[4].revstack_count == 120
        assert not by_t[4].strict

    def test_n7_strictness_window(self, get_table):
        report = verify_steingrimsson(7, table=get_table)
        assert report.ok
        assert [r.t for r in report.rows if r.strict] == [3, 4, 5]

    def test_json(self, get_table):
        blob = verify_steingrimsson(4, table=get_table).to_json()
        assert blob["ok"] is True
        assert len(blob["rows"]) == 4

    def test_stack_count_above_revstack_fails(self, get_table):
        # three degree-4 permutations of the stack table moved to degree 3:
        # count(3) becomes 117 against the revstack 116
        stack = moved_cells(get_table(5, "stack"), 4, 3, col=2, k=3)

        def fake(n, sorter):
            return stack if sorter == "stack" else get_table(n, sorter)

        report = verify_steingrimsson(5, table=fake)
        assert not report.ok
        assert (report.rows[3].stack_count, report.rows[3].revstack_count) == (117, 116)

    def test_asks_for_both_tables_of_its_size_only(self, get_table):
        table, asked = recording(get_table)
        verify_steingrimsson(5, table=table)
        assert sorted(asked) == [(5, "revstack"), (5, "stack")]


class TestTheoremSuite:
    def test_degenerate_sizes(self):
        for n in (1, 2):
            report = verify_theorems(n)
            assert report.ok, [c for c in report.checks if not c.ok]

    def test_n5_passes_everything(self):
        report = verify_theorems(5)
        assert report.ok, [c for c in report.checks if not c.ok]
        names = {c.name for c in report.checks}
        assert "zigzag bracketing" in names
        assert "degree-(n-2) root interlacing" in names

    def test_n6_passes_everything(self):
        report = verify_theorems(6)
        assert report.ok, [c for c in report.checks if not c.ok]

    def test_json_shape(self):
        blob = verify_theorems(3).to_json()
        assert blob["ok"] is True
        assert all({"name", "ok"} <= set(c) for c in blob["checks"])

    def test_asks_for_both_tables_of_its_size_only(self, get_table):
        table, asked = recording(get_table)
        assert verify_theorems(5, 1, table).ok
        assert sorted(asked) == [(5, "revstack"), (5, "stack")]

    def test_default_tables_sweep_with_its_jobs(self, monkeypatch):
        # descent_table is looked up at call time, so a stand-in (or a
        # tracer) sees both sweeps, and they get the suite's worker count
        asked = []
        real = enumeration.descent_table

        def spy(n, sorter="revstack", jobs=None):
            asked.append((n, sorter, jobs))
            return real(n, sorter, jobs)

        monkeypatch.setattr(enumeration, "descent_table", spy)
        assert verify_theorems(5, 1).ok
        assert sorted(asked) == [(5, "revstack", 1), (5, "stack", 1)]

    def test_table_checks_read_the_given_tables(self, get_table):
        # three degree-4 permutations of the stack table moved to degree 3:
        # only checks that read the tables can see it
        stack = moved_cells(get_table(5, "stack"), 4, 3, col=2, k=3)

        def fake(n, sorter):
            return stack if sorter == "stack" else get_table(n, sorter)

        report = verify_theorems(5, 1, fake)
        failed = {c.name for c in report.checks if not c.ok}
        assert failed and not failed & {name for name, _ in enumeration._PERMUTATION_CHECKS}

    def test_failing_check_reports_least_counterexample(self, monkeypatch):
        # the 2431 check fails on exactly these permutations; the fused pass
        # must report the least of them there and nowhere else
        wrong = {(4, 1, 3, 2, 5), (3, 5, 2, 1, 4), (2, 4, 3, 1, 5)}
        member = patterns.is_member_T2
        monkeypatch.setattr(patterns, "is_member_T2", lambda w: member(w) != (w in wrong))
        report = verify_theorems(5)
        failed = [c for c in report.checks if not c.ok]
        assert [c.name for c in failed] == [
            "two-pass sortable iff avoids 2431 and barred 241(5)3"
        ]
        assert failed[0].counterexample == "2 4 3 1 5"

    def test_corrupted_stack_array_fails_the_degree_walk(self, monkeypatch):
        # raise the stack degree of 2 1 3 4 in the S_4 array: every w in S_5
        # with S(w) = 2 1 3 4 5 is then read as needing one pass too many,
        # and the S-chain walk must report the least of them; the smaller
        # arrays, which the table kernel also reads, stay the real ones
        target = (2, 1, 3, 4)
        stack = bytearray(_degree_array(4, "stack"))
        stack[_rank(target)] += 1
        real = enumeration._degree_array
        monkeypatch.setattr(enumeration, "_degree_array", lambda m, sorter, jobs=1: (
            stack if (m, sorter) == (4, "stack") else real(m, sorter, jobs)))
        least = min(w for w in itertools.permutations(range(1, 6))
                    if stack_sort_sim(w)[:-1] == target)
        for jobs in (1, 2):
            checks = {c.name: c for c in verify_theorems(5, jobs).checks}
            walk = checks["degree bounds and iteration"]
            assert not walk.ok
            assert walk.counterexample == " ".join(map(str, least))

    @pytest.mark.parametrize("delta", [1, -1])
    def test_corrupted_revstack_array_fails_the_degree_walk(self, monkeypatch, delta):
        # move the revstack degree of 1 3 2 4 (2) in the S_4 array by delta:
        # every w in S_5 with T(w) = 1 3 2 4 5 is then read as needing one
        # pass too many or too few, and the T-chain walk, which starts from
        # the pass's own T(w), must report the least of them
        target = (1, 3, 2, 4)
        revstack = bytearray(_degree_array(4, "revstack"))
        assert revstack[_rank(target)] >= 1
        revstack[_rank(target)] += delta
        real = enumeration._degree_array
        monkeypatch.setattr(enumeration, "_degree_array", lambda m, sorter, jobs=1: (
            revstack if (m, sorter) == (4, "revstack") else real(m, sorter, jobs)))
        least = min(w for w in itertools.permutations(range(1, 6))
                    if revstack_sort_sim(w)[:-1] == target)
        for jobs in (1, 2):
            checks = {c.name: c for c in verify_theorems(5, jobs).checks}
            walk = checks["degree bounds and iteration"]
            assert not walk.ok
            assert walk.counterexample == " ".join(map(str, least))

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="only forked workers see the injected faults")
    def test_injected_faults_give_one_report_for_any_jobs(self, monkeypatch):
        # the 2431 check fails in shards 2, 4 and 5; h maps (6 1 2 3 4 5), in
        # the last shard, onto the image of (2 1 3 4 5 6), which has the same
        # descent count and the same S and T images, so the left inverse
        # returns the earlier word and the collision shows at the later one
        wrong = {(5, 3, 1, 2, 4, 6), (4, 6, 1, 2, 3, 5), (2, 6, 5, 1, 3, 4)}
        member = patterns.is_member_T2
        monkeypatch.setattr(patterns, "is_member_T2", lambda w: member(w) != (w in wrong))
        early, late = (2, 1, 3, 4, 5, 6), (6, 1, 2, 3, 4, 5)
        h = trees.injection_h
        monkeypatch.setattr(trees, "injection_h", lambda w: h(early) if w == late else h(w))
        reports = [verify_theorems(6, jobs) for jobs in (1, 2, 4)]
        assert reports[0] == reports[1] == reports[2]
        assert {c.name: c.counterexample for c in reports[0].checks if not c.ok} == {
            "two-pass sortable iff avoids 2431 and barred 241(5)3": "2 6 5 1 3 4",
            "descent-raising injection": "6 1 2 3 4 5",
        }

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="only forked workers see the injected faults")
    def test_wrong_left_inverse_fails_the_injection_at_the_least_word(self, monkeypatch):
        # an inverse that is wrong on the images of three words in three
        # shards, one by returning another word and two by finding no
        # prefix: the check fails at the least of the three for any jobs
        words = [w for w in itertools.permutations(range(1, 7)) if descents(w) <= 1]
        wrong = {trees.injection_h(w): w for w in (words[-1], words[40], words[25])}
        assert len({w[:2] for w in wrong.values()}) == 3
        inverse = trees.injection_h_inverse

        def wrong_inverse(h):
            if h not in wrong:
                return inverse(h)
            if wrong[h] == words[-1]:
                return words[0]
            raise LookupError(h)

        monkeypatch.setattr(trees, "injection_h_inverse", wrong_inverse)
        reports = [verify_theorems(6, jobs) for jobs in (1, 2, 4)]
        assert reports[0] == reports[1] == reports[2]
        assert {c.name: c.counterexample for c in reports[0].checks if not c.ok} == {
            "descent-raising injection": " ".join(map(str, words[25])),
        }

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="only forked workers see the injected faults")
    def test_check_major_blocks_keep_each_least_counterexample(self, monkeypatch):
        # blocks of 5 in the 24-permutation shard with prefix 3 1 of S_6: the
        # 2431 check fails in its first two blocks and in a later shard, and
        # in the first block the zigzag check, which runs after it, fails on
        # an earlier permutation than it does
        monkeypatch.setattr(enumeration, "_BLOCK", 5)
        shard = list(_with_prefix(6, 11))
        assert shard[0][:2] == (3, 1)
        wrong_t2 = {shard[3], shard[6], (5, 1, 2, 3, 4, 6)}
        wrong_z = {shard[1], shard[4]}
        member = patterns.is_member_T2
        monkeypatch.setattr(patterns, "is_member_T2", lambda w: member(w) != (w in wrong_t2))
        degrees = zigzag.zigzag_degrees
        monkeypatch.setattr(zigzag, "zigzag_degrees",
                            lambda w: (-1, len(w)) if w in wrong_z else degrees(w))
        reports = [verify_theorems(6, jobs) for jobs in (1, 2, 4)]
        assert reports[0] == reports[1] == reports[2]
        assert {c.name: c.counterexample for c in reports[0].checks if not c.ok} == {
            "two-pass sortable iff avoids 2431 and barred 241(5)3": " ".join(map(str, shard[3])),
            "zigzag bracketing": " ".join(map(str, shard[1])),
        }

    def test_theorem_pass_asks_for_at_most_n_workers(self, monkeypatch):
        # a stub pool records max_workers and runs each shard in this
        # process when it is submitted: the n(n-1) prefix shards of S_6 get
        # min(jobs, 6) workers, and the same report as a serial pass
        import concurrent.futures
        asked = []

        class Done:
            def __init__(self, value):
                self.value = value

            def result(self):
                return self.value

        class StubPool:
            def __init__(self, max_workers, initializer, initargs):
                asked.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                return Done(fn(*args))

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubPool)
        monkeypatch.setattr(enumeration, "_ARRAYS", ())
        serial = verify_theorems(6, 1)
        assert asked == []
        for jobs in (2, 4, 64):
            assert verify_theorems(6, jobs) == serial
        assert asked == [2, 4, 6]

    @pytest.mark.parametrize("reading", ["g for f", "S and T swapped", "one more right edge"])
    def test_each_walk_reading_is_checked(self, monkeypatch, reading):
        # one reading of the tree walk corrupted at a time: exactly the
        # checks that read it fail, each at its least counterexample.  g
        # keeps the descent count, so des(w) + des(f(w)) = n - 1 already
        # fails at the identity, as does the right-edge count; swapped S and
        # T show first at the least w with S(w) != T(w).
        apart = " ".join(map(str, next(w for w in itertools.permutations(range(1, 6))
                                       if stack_sort_sim(w) != revstack_sort_sim(w))))
        mutate, expected = {
            "g for f": (lambda r: r._replace(f=r.g),
                        {"duality involution and conjugates": "1 2 3 4 5"}),
            "S and T swapped": (lambda r: r._replace(s=r.t, t=r.s), {
                "operator identities (recursion = simulation, T = S o rev)": apart,
                "tree traversal identities": apart,
                "duality involution and conjugates": apart,
            }),
            "one more right edge": (lambda r: r._replace(right_edges=r.right_edges + 1),
                                    {"tree traversal identities": "1 2 3 4 5"}),
        }[reading]
        walk = trees.tree_walk
        monkeypatch.setattr(trees, "tree_walk", lambda w: mutate(walk(w)))
        report = verify_theorems(5, jobs=1)
        assert {c.name: c.counterexample for c in report.checks if not c.ok} == expected

    def test_pass_reads_the_walk_instead_of_other_trees(self, monkeypatch):
        # the injection h runs once on each permutation it is checked on,
        # those with des <= (n - 3) // 2
        calls = counted_calls(monkeypatch, trees.injection_h)
        assert verify_theorems(6, jobs=1).ok
        low = sum(descents(w) <= (6 - 3) // 2 for w in itertools.permutations(range(1, 7)))
        assert calls == [low]

    @pytest.mark.parametrize("cells, expected", [
        ([(1, 0, 1)], {
            "table symmetry v_t(n,i) = v_t(n,n-1-i) for t >= 1": "symmetry at t=1",
            "edge columns match the stack table": "edge-column equality at t=1",
            "last row is the Eulerian polynomial": "revstack row t=4",
        }),
        ([(1, 0, 1), (1, 2, 1000)], {
            "table symmetry v_t(n,i) = v_t(n,n-1-i) for t >= 1": "symmetry at t=1",
            "table rows log-concave": "log-concavity at t=1",
            "edge columns match the stack table": "edge-column equality at t=1",
            "last row is the Eulerian polynomial": "revstack row t=4",
        }),
    ])
    def test_table_checks_report_their_own_counterexample(self, get_table, cells, expected):
        deg_des = [list(r) for r in get_table(5, "revstack").deg_des]
        for d, i, delta in cells:
            deg_des[d][i] += delta
        rev = DescentTable(5, "revstack", tuple(map(tuple, deg_des)))
        results = _check_table_structure(5, rev, get_table(5, "stack"))
        assert {c.name: c.counterexample for c in results if not c.ok} == expected

    @pytest.mark.parametrize("sorter, src, expected", [
        # one permutation with one descent moved from degree src to src + 1
        ("stack", 1, {"one-pass row is the Narayana polynomial": "stack row t=1"}),
        ("revstack", 2, {"two-pass rows agree between sorters": "stack row t=2"}),
        ("revstack", 3, {
            "degree-(n-3) closed form": "revstack row t=3",
            "counting formulas": "revstack count t=n-3: 635 != 636",
        }),
        ("revstack", 4, {
            "degree-(n-2) closed form": "revstack row t=4",
            "counting formulas": "revstack count t=n-2: 707 != 708",
        }),
    ])
    def test_closed_forms_name_the_failing_row(self, get_table, sorter, src, expected):
        tables = {s: get_table(6, s) for s in SORTERS}
        tables[sorter] = moved_cells(tables[sorter], src, src + 1, col=1)
        results = _check_closed_forms(6, tables["revstack"], tables["stack"])
        assert {c.name: c.counterexample for c in results if not c.ok} == expected

    def test_wrong_count_formula_is_named_for_any_jobs(self, monkeypatch):
        # the formula is read in the calling process, so every start method sees it
        real = enumeration.count_stack_nm3
        monkeypatch.setattr(enumeration, "count_stack_nm3", lambda n: real(n) + 1)
        reports = [verify_theorems(6, jobs) for jobs in (1, 2)]
        assert reports[0] == reports[1]
        assert {c.name: c.counterexample for c in reports[0].checks if not c.ok} == {
            "counting formulas": "stack count t=n-3: 606 != 607",
        }

    def test_case_total_form_names_the_first_wrong_coefficient(self, get_table, monkeypatch):
        real = enumeration.w_revstack_nm3_from_contributions
        monkeypatch.setattr(enumeration, "w_revstack_nm3_from_contributions",
                            lambda n: real(n) + IntPoly.from_coeffs([0, 0, 0, 2, 0, 3]))
        want = w_revstack_nm3(6)[3]
        results = _check_closed_forms(6, get_table(6, "revstack"), get_table(6, "stack"))
        assert {c.name: c.counterexample for c in results if not c.ok} == {
            "degree-(n-3) case-total form": f"coefficient of x^3: {want} != {want + 2}",
        }

    @pytest.mark.parametrize("n", range(1, 7))
    def test_degree_walk_rejects_every_wrong_degree(self, n):
        # each clause of the walk on its own: the true degrees pass, a
        # degree one off fails (so does the identity read as unsorted), and
        # so does degree n with an image of degree n - 1 given for T(w)
        pred = enumeration._pred_degree_iteration
        perms_n = list(itertools.permutations(range(1, n + 1)))
        for w in perms_n:
            s, t = stack_sort_sim(w), revstack_sort_sim(w)
            dt, ds = deg_revstack(w), deg_stack(w)
            assert pred(w, s, t, 0, dt, ds, None)
            for delta in (-1, 1):
                assert not pred(w, s, t, 0, dt + delta, ds, None)
                assert not pred(w, s, t, 0, dt, ds + delta, None)
        slowest = max(perms_n, key=deg_revstack)
        assert deg_revstack(slowest) == n - 1
        if n >= 2:
            w = perms_n[-1]
            assert not pred(w, stack_sort_sim(w), slowest, 0, n, deg_stack(w), None)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_precedence_lemmas_match_the_value_pair_form(self, n):
        # with T(w) every w passes; with its first two entries swapped,
        # which reverses one pair's order in T(w), every w fails
        pred = enumeration._pred_precedence_lemmas
        for w in itertools.permutations(range(1, n + 1)):
            t = revstack_sort_sim(w)
            assert pred(w, (), t, 0, 0, 0, None) and precedence_by_value_pairs(w, t)
            if n >= 2:
                swapped = (t[1], t[0]) + t[2:]
                assert not pred(w, (), swapped, 0, 0, 0, None)
                assert not precedence_by_value_pairs(w, swapped)


class TestClassification:
    def test_class_families_n4(self):
        report = classify_degree_nm2(4)
        assert report.ok, report.detail
        assert sum(report.sizes.values()) == count_revstack_nm2(4) - count_revstack_nm3(4)

    def test_union_size_n5(self):
        report = classify_degree_nm2(5)
        assert report.ok, report.detail
        assert sum(report.sizes.values()) == 25

    def test_n6(self):
        report = classify_degree_nm2(6)
        assert report.ok, report.detail

    def test_members_have_exact_degree(self):
        # oracle: every member kept, each once, and compared with a scan of S_n
        for n in range(4, 8):
            owner = {}
            for spec in degree_nm2_classes(n):
                for w in spec.members():
                    assert w not in owner, (w, owner.get(w), spec.name)
                    owner[w] = spec.name
            assert set(owner) == {w for w in itertools.permutations(range(1, n + 1))
                                  if deg_revstack(w) == n - 2}

    def test_determinism_across_jobs(self):
        serial, pooled = (classify_degree_nm2(7, partial(descent_table, jobs=j)) for j in (1, 2))
        assert serial == pooled

    @pytest.mark.parametrize("src, dst, detail", [
        (3, 4, "coverage mismatch: 1 missing, 0 extra"),
        (4, 3, "coverage mismatch: 0 missing, 1 extra"),
    ])
    def test_coverage_is_read_from_the_table(self, get_table, src, dst, detail):
        # one permutation with one descent moved between degrees n-3 and n-2
        fake_table = moved_cells(get_table(6, "revstack"), src, dst, col=1)
        report = classify_degree_nm2(6, table=lambda n, sorter: fake_table)
        assert not report.ok
        assert report.detail == detail

    def test_asks_for_the_revstack_table_of_its_size_only(self, get_table):
        table, asked = recording(get_table)
        assert classify_degree_nm2(5, table=table).ok
        assert asked == [(5, "revstack")]

    def test_bounds(self):
        with pytest.raises(ValueError):
            classify_degree_nm2(3)
        with pytest.raises(ValueError):
            classify_degree_nm2(enumeration.MAX_N + 1)

    @pytest.mark.parametrize("n", range(4, 16))
    def test_each_family_fixes_both_sides_of_its_pivot(self, n):
        # a family's right values are the rest, so the values left of its
        # pivot decide every member's sides, as the owner lookup assumes
        for spec in degree_nm2_classes(n):
            assert spec.pivot in (n - 1, n)
            assert spec.left_values | spec.right_values | {spec.pivot} == set(range(1, n + 1))
            assert not spec.left_values & spec.right_values

    def test_duplicated_family_is_reported(self, monkeypatch):
        real = enumeration.degree_nm2_classes

        def with_copy(n):
            classes = real(n)
            return classes + [next(c for c in classes if c.name == "b")._replace(name="b-copy")]

        monkeypatch.setattr(enumeration, "degree_nm2_classes", with_copy)
        report = classify_degree_nm2(6)
        assert not report.ok
        assert report.detail == "1 3 5 6 2 4 in both b and b-copy"

    def test_family_without_its_constraint_is_reported(self, monkeypatch):
        # a-left without "6 precedes 3" also holds 1 3 6 5 2 4, a member of c
        real = enumeration.degree_nm2_classes
        monkeypatch.setattr(enumeration, "degree_nm2_classes", lambda n: [
            c._replace(constraint=None) if c.name == "a-left" else c for c in real(n)])
        report = classify_degree_nm2(6)
        assert not report.ok
        assert report.detail == "1 3 6 5 2 4 in both a-left and c"
        c = next(c for c in real(6) if c.name == "c")
        assert (1, 3, 6, 5, 2, 4) in set(c.members())

    @pytest.mark.extended
    def test_n11(self):
        report = classify_degree_nm2(11)
        assert report.ok, report.detail
        assert sum(report.sizes.values()) == 174_240


class TestZigzagFree:
    def test_zero_degree_counts_identity_only(self):
        for n in range(1, 7):
            assert zigzag_free_table(n)[0] == (1, 1, 1)

    def test_degree_one_counts_catalan(self):
        for n in range(1, 7):
            assert zigzag_free_table(n)[1][0] == catalan(n)

    def test_bracketing_counts(self, get_table):
        for n in range(1, 7):
            table = get_table(n, "revstack")
            rows = zigzag_free_table(n)
            for k in range(n):
                lo, mid, hi = rows[k]
                assert mid == table.count(k)
                assert lo <= mid <= hi
            assert rows[n] == (math.factorial(n),) * 3

    def test_table_matches_single_counts(self):
        # oracle: count permutations with no (uninterrupted) k-zigzag by
        # the subset scan, k by k
        rows = zigzag_free_table(5)
        perms = list(itertools.permutations(range(1, 6)))
        for k, (free, _, free_u) in rows.items():
            assert free == sum(scan_zigzag(w, k) is None for w in perms)
            assert free_u == sum(scan_zigzag(w, k, uninterrupted=True) is None for w in perms)

    def test_determinism_across_jobs(self):
        assert zigzag_free_table(7, jobs=1) == zigzag_free_table(7, jobs=2)

    @pytest.mark.extended
    def test_bracketing_on_all_of_s9(self):
        # the sweep asserts maxu < degree <= maxz + 1 on every permutation
        # of S_9; the middle column is the k-pass-sortable count
        assert zigzag_free_table(9, 2) == {
            0: (1, 1, 1),
            1: (4862, 4862, 4862),
            2: (41586, 49335, 58728),
            3: (148528, 165371, 194152),
            4: (255684, 267054, 303128),
            5: (329832, 332916, 350544),
            6: (356112, 356472, 361504),
            7: (362304, 362304, 362816),
            8: (362880, 362880, 362880),
            9: (362880, 362880, 362880),
        }

    def test_bounds(self):
        with pytest.raises(ValueError):
            zigzag_free_table(12)
        with pytest.raises(ValueError):
            zigzag_free_table(0)


class TestAppendixReproduction:
    def test_reference_data_is_complete(self):
        entries = load_reference_tables()
        assert len(entries) == 55
        assert {(e["n"], e["t"]) for e in entries} == {
            (n, t) for n in range(1, 11) for t in range(n)
        }

    def test_reference_spot_values(self):
        by_key = {(e["n"], e["t"]): e for e in load_reference_tables()}
        assert by_key[(7, 4)]["coeffs"] == [0, 1, 112, 1113, 2258, 1113, 112, 1]
        assert by_key[(10, 1)]["coeffs"][5] == 5292
        assert -471.40751 in by_key[(9, 8)]["roots"]

    def test_all_reference_rows_log_concave(self):
        # the log-concavity conjecture at full reference scale (n <= 10)
        from revstack.polynomials import is_log_concave

        for e in load_reference_tables():
            assert is_log_concave(IntPoly.from_coeffs(e["coeffs"])), (e["n"], e["t"])

    def test_small_scale(self):
        report = reproduce_appendix(enumerate_max_n=6)
        assert report.ok
        assert report.enumerated_n == (1, 2, 3, 4, 5, 6)

    def test_asks_for_revstack_tables_up_to_max_n_only(self, get_table):
        table, asked = recording(get_table)
        assert reproduce_appendix(enumerate_max_n=4, table=table).ok
        assert asked == [(n, "revstack") for n in range(1, 5)]

    def test_corrupted_coefficient_is_named(self):
        entries = [dict(e) for e in load_reference_tables()]
        victim = next(e for e in entries if e["n"] == 5 and e["t"] == 2)
        victim["coeffs"] = list(victim["coeffs"])
        victim["coeffs"][3] += 1
        report = reproduce_appendix(enumerate_max_n=5, entries=entries)
        assert not report.ok
        assert any(m.n == 5 and m.t == 2 for m in report.mismatches)

    def test_corrupted_root_is_named(self):
        entries = [dict(e) for e in load_reference_tables()]
        victim = next(e for e in entries if e["n"] == 4 and e["t"] == 3)
        victim["roots"] = list(victim["roots"])
        victim["roots"][0] += 0.01
        report = reproduce_appendix(enumerate_max_n=1, entries=entries)
        assert not report.ok
        assert any(m.n == 4 and m.t == 3 and "root" in m.what for m in report.mismatches)


def test_consumers_look_up_descent_table_when_called(monkeypatch):
    # each consumer without a table reads enumeration.descent_table at
    # call time, so a stand-in (or perfbench's tracer) sees its requests
    asked = []
    real = enumeration.descent_table

    def spy(n, sorter="revstack", jobs=None):
        asked.append((n, sorter))
        return real(n, sorter, jobs)

    monkeypatch.setattr(enumeration, "descent_table", spy)
    for run, want in [
        (lambda: verify_steingrimsson(5), [(5, "revstack"), (5, "stack")]),
        (lambda: classify_degree_nm2(5), [(5, "revstack")]),
        (lambda: reproduce_appendix(3), [(n, "revstack") for n in (1, 2, 3)]),
    ]:
        asked.clear()
        assert run().ok
        assert sorted(asked) == want


RECORDS = [
    (enumeration.DescentTable, dict(n=2, sorter="revstack", deg_des=((1, 0), (0, 1)))),
    (enumeration.CheckResult, dict(name="operator identities", ok=False, counterexample="2 1")),
    (enumeration.SuiteReport, dict(n=2, checks=(enumeration.CheckResult("x", True),))),
    (enumeration.SteingrimssonRow, dict(t=1, stack_count=2, revstack_count=2, holds=True)),
    (enumeration.SteingrimssonReport, dict(n=2, rows=(), ok=True)),
    (enumeration.ClassSpec, dict(name="b", pivot=4, left_values=frozenset({1, 3}),
                                 right_values=frozenset({2}), constraint=(3, 1))),
    (enumeration.ClassificationReport, dict(n=4, ok=True, sizes={"b": 1}, detail="")),
    (enumeration.AppendixMismatch, dict(n=3, t=1, what="roots not all real")),
    (enumeration.AppendixReport, dict(enumerated_n=(3,), mismatches=())),
    (patterns.PatternSpec, dict(letters=(1, 3, 2), barred_index=2)),
    (patterns.Occurrence, dict(positions=(1, 3), values=(2, 1))),
    (patterns.SortedPatternWitness, dict(triple=(1, 3, 2), kind="2431", d=4)),
    (patterns.SortedPatternReport, dict(holds=False, witnesses=(), failed_triple=(1, 3, 2))),
    (roots.RootInterval, dict(lo=Fraction(-1), hi=Fraction(-1, 2), multiplicity=1)),
    (roots.RootReport, dict(all_real=True, nonpositive=True, roots=())),
    (roots.InterlacingReport, dict(ok=False, detail="ordering violated")),
    (trees.HStep, dict(word=(1, 3, 2), result=(2, 3, 1), index=1, flipped_labels=(1,),
                       flipped_indices=(1,))),
    (zigzag.Zigzag, dict(values=(3, 1, 2), interrupted=False)),
    (IntPoly, dict(coeffs=(0, 1, 1))),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_are_frozen_values_with_field_reprs(cls, fields):
    record = cls(**fields)
    first = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, first, fields[first])
    twin = cls(**fields)
    assert record == twin and pickle.loads(pickle.dumps(record)) == record
    if isinstance(fields.get("sizes"), dict):
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin)
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{cls.__name__}({shown})"


def test_int_poly_is_no_tuple_and_descent_table_count_is_no_tuple_count():
    p = IntPoly((0, 1, 1))
    copy = pickle.loads(pickle.dumps(p))
    assert type(copy) is IntPoly and copy.coeffs == (0, 1, 1) and list(copy) == [0, 1, 1]
    assert p != (0, 1, 1) and p != IntPoly((0, 1))
    table = descent_table(4)
    assert [table.count(t) for t in range(4)] == [1, 14, 22, 24]
