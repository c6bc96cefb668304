import hashlib
import json
import math
import sys

import pytest

from revstack import cli, enumeration, zigzag
from revstack.cli import COUNT_MAKERS, POLY_MAKERS, main
from revstack.perms import parse_permutation
from revstack.polynomials import IntPoly
from revstack.roots import real_roots


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out


class TestSortAndDegree:
    def test_revstack_sort(self, capsys):
        status, out = run(capsys, "sort", "--op", "revstack", "4 2 5 1 3")
        assert status == 0
        assert out.strip() == "1 3 2 4 5"

    def test_compact_input(self, capsys):
        status, out = run(capsys, "sort", "--op", "stack", "42513")
        assert status == 0
        assert out.strip() == "2 4 1 3 5"

    def test_reverse_and_times(self, capsys):
        _, out = run(capsys, "sort", "--op", "reverse", "1 2 3")
        assert out.strip() == "3 2 1"
        # the reversal is applied --times times: even counts give the word back
        for times, want in (("0", "4 2 1 3"), ("1", "3 1 2 4"), ("2", "4 2 1 3"),
                            ("3", "3 1 2 4")):
            status, out = run(capsys, "sort", "--op", "reverse", "--times", times, "4213")
            assert (status, out.strip()) == (0, want)
        status, out = run(capsys, "sort", "--op", "reverse", "--times", "2", "--format", "json",
                          "4213")
        assert json.loads(out) == {"input": [4, 2, 1, 3], "op": "reverse", "times": 2,
                                   "result": [4, 2, 1, 3]}
        for op in ("reverse", "stack", "revstack"):
            status = main(["sort", "--op", op, "--times", "-1", "4213"])
            captured = capsys.readouterr()
            assert (status, captured.out) == (2, "")
            assert captured.err == "error: iteration count must be non-negative\n"
        _, out = run(capsys, "sort", "--op", "revstack", "--times", "2", "2 4 1 3 5")
        assert out.strip() == "2 1 3 4 5"
        _, out = run(capsys, "sort", "--op", "revstack", "--times", "0", "4 2 5 1 3")
        assert out.strip() == "4 2 5 1 3"

    @pytest.mark.parametrize("op", ["stack", "revstack", "reverse"])
    def test_huge_times_takes_at_most_n_passes(self, capsys, monkeypatch, op):
        # both sorts fix the identity they reach within n - 1 passes and the
        # reversal is an involution, so 10**12 passes print what n passes
        # print; a pass past the n-th raises instead of running on
        word, n = "1 5 3 2 7 8 4 6", 8
        passes = [0]
        for name in ("stack_sort_sim", "revstack_sort_sim", "reverse"):
            def counted(w, one_pass=getattr(cli, name)):
                passes[0] += 1
                if passes[0] > n:
                    raise RuntimeError("more than n passes")
                return one_pass(w)
            monkeypatch.setattr(cli, name, counted)
        huge = run(capsys, "sort", "--op", op, "--times", str(10**12), word)
        passes[0] = 0
        assert huge == run(capsys, "sort", "--op", op, "--times", str(n), word)
        assert huge[0] == 0 and passes[0] == (0 if op == "reverse" else n)

    def test_degree(self, capsys):
        status, out = run(capsys, "degree", "1 2 3")
        assert status == 0
        assert out.strip() == "0"
        _, out = run(capsys, "degree", "--sorter", "stack", "2 3 1")
        assert out.strip() == "2"

    def test_output_reparses(self, capsys):
        _, out = run(capsys, "sort", "--op", "revstack", "3 1 4 2 6 5")
        assert len(parse_permutation(out.strip())) == 6

    def test_json(self, capsys):
        status, out = run(capsys, "sort", "--format", "json", "4 2 5 1 3")
        assert status == 0
        blob = json.loads(out)
        assert blob["result"] == [1, 3, 2, 4, 5]


class TestPatternAndZigzag:
    def test_pattern_contains(self, capsys):
        status, out = run(capsys, "pattern", "--pattern", "132", "4 2 5 1 3")
        assert status == 0
        assert "contains" in out

    def test_pattern_avoids_json(self, capsys):
        status, out = run(
            capsys, "pattern", "--pattern", "2415!3", "--format", "json", "2 4 1 5 3"
        )
        blob = json.loads(out)
        assert blob == {"pattern": "2 4 1 5! 3", "contains": False, "occurrence": None}

    def test_zigzag(self, capsys):
        status, out = run(capsys, "zigzag", "--k", "3", "1 5 3 2 7 8 4 6")
        assert status == 0
        assert out.strip() == "8 6 5 4 3 (uninterrupted)"

    def test_zigzag_none(self, capsys):
        status, out = run(capsys, "zigzag", "--k", "2", "--format", "json", "1 2 3")
        assert json.loads(out) == {"k": 2, "zigzag": None}

    @pytest.mark.parametrize("flags", [(), ("--uninterrupted",)])
    def test_zigzag_negative_k(self, capsys, flags):
        status = main(["zigzag", "--k", "-1", *flags, "2 1"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err == "error: zigzag degree must be non-negative\n"


class TestPolyAndCount:
    def test_poly(self, capsys):
        _, out = run(capsys, "poly", "--which", "eulerian", "--n", "5")
        assert out.strip() == "x^5 + 26x^4 + 66x^3 + 26x^2 + x"
        _, out = run(capsys, "poly", "--which", "revstack-nm3", "--n", "5")
        assert out.strip() == "x^5 + 20x^4 + 49x^3 + 20x^2 + x"

    def test_poly_json(self, capsys):
        _, out = run(capsys, "poly", "--which", "narayana", "--n", "4", "--format", "json")
        assert json.loads(out) == {"coeffs": [0, 1, 6, 6, 1]}

    def test_counts(self, capsys):
        for what, expect in (
            ("revstack-nm2", "116"),
            ("revstack-nm3", "91"),
            ("stack-nm2", "114"),
            ("stack-nm3", "91"),
        ):
            _, out = run(capsys, "count", "--what", what, "--n", "5")
            assert out.strip() == expect

    def test_zigzag_free_count(self, capsys):
        status, out = run(capsys, "count", "--what", "zigzag-free", "--n", "5", "--k", "1")
        assert status == 0
        assert out.strip() == "42"

    def test_zigzag_free_requires_k(self, capsys):
        # one column needs its k; without --k every column is printed
        status = main(["count", "--what", "zigzag-free", "--n", "5", "--uninterrupted"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1

    def test_zigzag_free_without_k_prints_every_k(self, capsys):
        status, out = run(capsys, "count", "--what", "zigzag-free", "--n", "5", "--jobs", "1")
        lines = out.splitlines()
        assert status == 0
        assert lines[0].split() == ["k", "no-k-zigzag", "k-pass-sortable",
                                    "no-uninterrupted-k-zigzag"]
        assert [line.split()[0] for line in lines[1:]] == ["0", "1", "2", "3", "4"]
        # k = n - 1: every permutation of S_5 is counted in all three columns
        assert lines[-1].split() == ["4", "120", "120", "120"]
        # k = 1 agrees with the single-column form
        assert lines[2].split()[1] == "42"
        status, out = run(capsys, "count", "--what", "zigzag-free", "--n", "5", "--jobs", "1",
                          "--format", "json")
        rows = json.loads(out)["rows"]
        assert status == 0
        assert [[r["k"], r["no_zigzag"], r["sortable"], r["no_uninterrupted_zigzag"]]
                for r in rows] == [list(map(int, line.split())) for line in lines[1:]]

    def test_zigzag_free_every_k_jobs_agree(self, capsys):
        outputs = [run(capsys, "count", "--what", "zigzag-free", "--n", "6", "--jobs", jobs)
                   for jobs in ("1", "2")]
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0

    @pytest.mark.parametrize("flags", [
        ["--what", "stack-nm2", "--k", "3"],
        ["--what", "stack-nm2", "--uninterrupted"],
        ["--what", "revstack-nm3", "--k", "3", "--uninterrupted"],
    ])
    def test_closed_forms_reject_zigzag_flags(self, capsys, flags):
        status = main(["count", "--n", "5", *flags])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1

    def test_zigzag_bracketing_failure_exits_1(self, capsys, monkeypatch):
        # a degree bound that every permutation but the identity breaks
        monkeypatch.setattr(zigzag, "zigzag_degrees", lambda w: (-1, -1))
        status = main(["count", "--what", "zigzag-free", "--n", "3", "--k", "1", "--jobs", "1"])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err == "error: zigzag bracketing violated at 1 3 2\n"

    def test_zigzag_free_k_above_n_counts_everything(self, capsys):
        for flags in ((), ("--uninterrupted",)):
            status, out = run(
                capsys, "count", "--what", "zigzag-free", "--n", "5", "--k", "9", *flags
            )
            assert status == 0
            assert out.strip() == "120"

    def test_zigzag_free_jobs_reach_the_sweep(self, capsys, monkeypatch):
        from revstack import enumeration

        asked = []
        table = enumeration.zigzag_free_table
        monkeypatch.setattr(enumeration, "zigzag_free_table",
                            lambda n, jobs=None: asked.append(jobs) or table(n, jobs))
        outs = {
            jobs: run(capsys, "count", "--what", "zigzag-free", "--n", "6", "--k", "2",
                      "--uninterrupted", "--jobs", jobs)
            for jobs in ("1", "2")
        }
        assert asked == [1, 2]
        assert outs["1"] == outs["2"] == (0, "422\n")

    def test_zigzag_free_above_the_cap_runs_no_sweep(self, capsys, monkeypatch):
        from revstack import enumeration

        def refuse(*args, **kwargs):
            raise AssertionError("no sweep may start")

        monkeypatch.setattr(enumeration, "_sweep", refuse)
        monkeypatch.setattr(enumeration, "_degree_array", refuse)
        for flags in ((), ("--k", "2")):
            status = main(["count", "--what", "zigzag-free", "--n", "12", *flags])
            captured = capsys.readouterr()
            assert (status, captured.out) == (2, "")
            assert captured.err == "error: zigzag-free counting supported for 1 <= n <= 11\n"

    def test_zigzag_free_negative_k(self, capsys):
        status, out = run(capsys, "count", "--what", "zigzag-free", "--n", "5", "--k", "-1")
        assert status == 2
        assert out == ""

    @pytest.mark.parametrize("verb, which, lowest", [
        *[("poly", which, {"eulerian": 0, "narayana": 1, "d": 2, "l": 2}.get(which, 4))
          for which in sorted(POLY_MAKERS)],
        *[("count", which, 4) for which in sorted(COUNT_MAKERS)],
    ])
    def test_each_bound_has_one_message(self, capsys, verb, which, lowest):
        # the first n below the range and every n further down get the
        # same message, which names the bound
        message = {0: "error: n must be non-negative\n",
                   1: "error: n must be at least 1\n",
                   2: "error: n must be at least 2\n",
                   4: "error: closed form requires n >= 4\n"}[lowest]
        flag = "--which" if verb == "poly" else "--what"
        assert run(capsys, verb, flag, which, "--n", str(lowest))[0] == 0
        for n in (lowest - 1, -2):
            status = main([verb, flag, which, "--n", str(n)])
            captured = capsys.readouterr()
            assert (status, captured.out, captured.err) == (2, "", message), n

    def test_poly_precondition_is_usage_error(self, capsys):
        status, _ = run(capsys, "poly", "--which", "revstack-nm2", "--n", "2")
        assert status == 2

    def test_count_past_the_integer_string_limit(self, capsys):
        # 1700! - 1698! has 4756 digits, past the interpreter's default cap
        # of 4300 on integer-string conversion; start from that cap.
        capped = hasattr(sys, "set_int_max_str_digits")
        if capped:
            limit = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(4300)
        try:
            expect = math.factorial(1700) - math.factorial(1698)
            status, out = run(capsys, "count", "--what", "stack-nm2", "--n", "1700")
            assert status == 0
            assert out.strip() == str(expect)
            status, out = run(capsys, "count", "--what", "stack-nm2", "--n", "1700",
                              "--format", "json")
            assert status == 0
            assert json.loads(out) == {"what": "stack-nm2", "n": 1700, "count": expect}
        finally:
            if capped:
                sys.set_int_max_str_digits(limit)


class TestTable:
    def test_plain_and_csv(self, capsys, tmp_path):
        status, out = run(
            capsys, "table", "--n", "4", "--cache-dir", str(tmp_path)
        )
        assert status == 0
        assert "t=3" in out
        status, out = run(
            capsys, "table", "--n", "4", "--format", "csv", "--cache-dir", str(tmp_path)
        )
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("t,")
        assert len(lines) == 5

    def test_json_schema(self, capsys, tmp_path):
        _, out = run(
            capsys, "table", "--n", "5", "--format", "json", "--cache-dir", str(tmp_path)
        )
        blob = json.loads(out)
        assert blob["rows"][2]["coeffs"] == [0, 1, 20, 49, 20, 1]

    def test_warm_and_cold_cache_identical(self, capsys, tmp_path):
        _, cold = run(
            capsys, "table", "--n", "5", "--format", "json", "--cache-dir", str(tmp_path)
        )
        _, warm = run(
            capsys, "table", "--n", "5", "--format", "json", "--cache-dir", str(tmp_path)
        )
        assert cold == warm

    def test_deeply_nested_cache_entry_recomputed(self, capsys, tmp_path):
        # too deep for the JSON decoder's recursion: corrupt, so recomputed
        entry = tmp_path / "table-revstack-5.json"
        entry.write_text("[" * 200_000 + "]" * 200_000)
        status, out = run(capsys, "table", "--n", "5", "--cache-dir", str(tmp_path))
        _, fresh = run(capsys, "table", "--n", "5", "--no-cache")
        assert (status, out) == (0, fresh)
        assert json.loads(entry.read_text())["n"] == 5

    def test_unwritable_cache_dir_computes_only(self, capsys, tmp_path):
        # A directory below a regular file cannot be created, even as root.
        blocker = tmp_path / "file"
        blocker.write_text("")
        status, out = run(capsys, "table", "--n", "4", "--cache-dir", str(blocker / "sub"))
        _, fresh = run(capsys, "table", "--n", "4", "--no-cache")
        assert status == 0
        assert out == fresh
        assert blocker.read_text() == ""

    def test_rejects_oversized_n(self, capsys):
        status, _ = run(capsys, "table", "--n", str(enumeration.MAX_N + 1), "--no-cache")
        assert status == 2

    def test_jobs_values_agree(self, capsys, tmp_path):
        outputs = []
        for jobs in ("1", "3"):
            _, out = run(
                capsys, "table", "--n", "5", "--jobs", jobs, "--format", "json",
                "--no-cache",
            )
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestVerify:
    def test_steingrimsson(self, capsys):
        status, out = run(capsys, "verify", "--suite", "steingrimsson", "--n", "6")
        assert status == 0
        assert "VERIFIED" in out

    def test_theorems(self, capsys):
        status, out = run(capsys, "verify", "--suite", "theorems", "--n", "4")
        assert status == 0
        assert "PASS" in out and "FAIL" not in out

    def test_classification(self, capsys):
        status, out = run(
            capsys, "verify", "--suite", "classification", "--n", "5", "--format", "json"
        )
        assert status == 0
        assert json.loads(out)["ok"] is True


    @pytest.mark.parametrize("suite, n", [("theorems", "6"), ("classification", "7")])
    def test_jobs_values_agree(self, capsys, suite, n):
        outputs = [
            run(capsys, "verify", "--suite", suite, "--n", n, "--jobs", jobs)
            for jobs in ("1", "2")
        ]
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0

    def test_all_jobs_agree(self, capsys):
        outputs = [run(capsys, "verify", "--suite", "all", "--n", "7", "--jobs", jobs)
                   for jobs in ("1", "2")]
        assert outputs[0] == outputs[1]
        status, out = outputs[0]
        lines = out.splitlines()
        assert status == 0
        assert lines[0] == "PASS theorems n=1"
        assert lines[-2:] == ["PASS appendix n=7", "VERIFIED"]
        assert len(lines) == 7 + 7 + 4 + 1 + 1
        assert all(line.startswith("PASS ") for line in lines[:-1])

    def test_all_json(self, capsys):
        status, out = run(capsys, "verify", "--suite", "all", "--n", "4", "--format", "json")
        blob = json.loads(out)
        assert status == 0
        assert blob["ok"] is True
        assert [(r["suite"], r["n"]) for r in blob["reports"]] == [
            ("theorems", 1), ("theorems", 2), ("theorems", 3), ("theorems", 4),
            ("steingrimsson", 1), ("steingrimsson", 2), ("steingrimsson", 3),
            ("steingrimsson", 4), ("classification", 4), ("appendix", 4),
        ]
        assert blob["reports"][4]["report"]["rows"] == [
            {"t": 0, "stack": 1, "revstack": 1, "strict": False}
        ]

    def test_all_reads_each_table_once(self, capsys, monkeypatch):
        asked = []
        table = enumeration.descent_table

        def recording(n, sorter="revstack", jobs=None):
            asked.append((n, sorter))
            return table(n, sorter, jobs)

        monkeypatch.setattr(enumeration, "descent_table", recording)
        status, _ = run(capsys, "verify", "--suite", "all", "--n", "6", "--jobs", "1")
        assert status == 0
        assert len(asked) == len(set(asked))
        assert set(asked) == {(n, s) for n in range(1, 7) for s in ("revstack", "stack")}

    def test_all_fails_on_a_moved_cell(self, capsys, monkeypatch):
        # one two-pass permutation of S_5 with two descents moved to degree 1
        table = enumeration.descent_table

        def corrupted(n, sorter="revstack", jobs=None):
            real = table(n, sorter, jobs)
            if (n, sorter) != (5, "revstack"):
                return real
            deg_des = [list(row) for row in real.deg_des]
            deg_des[2][2] -= 1
            deg_des[1][2] += 1
            return enumeration.DescentTable(n, sorter, tuple(map(tuple, deg_des)))

        monkeypatch.setattr(enumeration, "descent_table", corrupted)
        status, out = run(capsys, "verify", "--suite", "all", "--n", "5", "--jobs", "1")
        lines = out.splitlines()
        assert status == 1
        assert ("FAIL theorems n=5: one-pass row is the Narayana polynomial"
                "  (revstack row t=1)") in lines
        assert "FAIL steingrimsson n=5: sortable-set sizes at t=1: stack 42, revstack 43" in lines
        assert [line for line in lines if line.startswith("FAIL appendix")] == [
            "FAIL appendix n=5: reference table (n=5, t=1): coefficients"
            " [0, 1, 10, 21, 10, 1] != reference [0, 1, 10, 20, 10, 1]"
        ]
        assert "PASS theorems n=4" in lines
        assert lines[-1] == "FAILED"

    @pytest.mark.parametrize("n", ["0", "-1", str(enumeration.MAX_N + 1)])
    def test_all_rejects_sizes_outside_the_range(self, capsys, n):
        status = main(["verify", "--suite", "all", "--n", n])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err == (f"error: --n must be within 1..{enumeration.MAX_N}"
                                f" (got {n})\n")

    @pytest.mark.extended
    def test_all_n9(self, capsys):
        status, out = run(capsys, "verify", "--suite", "all", "--n", "9", "--jobs", "2")
        assert status == 0, out
        assert out.splitlines()[-1] == "VERIFIED"

    def test_theorems_output_is_byte_stable(self, capsys):
        status, out = run(capsys, "verify", "--suite", "theorems", "--n", "7")
        assert (status, out) == (0, THEOREMS_N7)
        names = [line.removeprefix("PASS ") for line in THEOREMS_N7.splitlines()[:-1]]
        blob = {"n": 7, "ok": True, "checks": [{"name": name, "ok": True} for name in names]}
        status, out = run(capsys, "verify", "--suite", "theorems", "--n", "7", "--format", "json")
        assert (status, out) == (0, json.dumps(blob, indent=1) + "\n")


# stdout of `verify --suite theorems --n 7`, pinned byte for byte; the
# json form lists the same checks in the same order.
THEOREMS_N7 = """\
PASS operator identities (recursion = simulation, T = S o rev)
PASS degree bounds and iteration
PASS precedence lemmas / inversion characterisation
PASS one-pass sortable iff 132-avoiding
PASS two-pass sortable iff avoids 2431 and barred 241(5)3
PASS two-pass stack-sortable iff avoids 2341 and barred 3(5)241
PASS every 132 in T(w) is witnessed in w
PASS zigzag bracketing
PASS tree traversal identities
PASS duality involution and conjugates
PASS descent-raising injection
PASS two-pass descent equidistribution
PASS table symmetry v_t(n,i) = v_t(n,n-1-i) for t >= 1
PASS table rows unimodal
PASS table rows log-concave
PASS edge columns match the stack table
PASS t-sortable sets nest
PASS last row is the Eulerian polynomial
PASS one-pass row is the Narayana polynomial
PASS two-pass rows agree between sorters
PASS degree-(n-2) closed form
PASS degree-(n-3) closed form
PASS degree-(n-3) case-total form
PASS counting formulas
PASS counting inequalities (exact rationals)
PASS degree-(n-2) root interlacing
VERIFIED
"""


# stdout of `roots --n 8 --t 3 --format json`: the exact interval
# endpoints of one descent polynomial, pinned byte for byte.
ROOTS_N8_T3_JSON = """\
{
 "poly": {
  "coeffs": [
   0,
   1,
   154,
   2587,
   9490,
   9490,
   2587,
   154,
   1
  ]
 },
 "report": {
  "all_real": true,
  "nonpositive": true,
  "roots": [
   {
    "lo": "-4652604972855/34359738368",
    "hi": "-2326302485241/17179869184",
    "approx": "-135.40863",
    "mult": 1
   },
   {
    "lo": "-479658497997/34359738368",
    "hi": "-59957311953/4294967296",
    "approx": "-13.95990",
    "mult": 1
   },
   {
    "lo": "-27867588903/8589934592",
    "hi": "-111470353239/34359738368",
    "approx": "-3.24421",
    "mult": 1
   },
   {
    "lo": "-8589934899/8589934592",
    "hi": "-34359737223/34359738368",
    "approx": "-1.00000",
    "mult": 1
   },
   {
    "lo": "-5295541713/17179869184",
    "hi": "-10591081053/34359738368",
    "approx": "-0.30824",
    "mult": 1
   },
   {
    "lo": "-1230659157/17179869184",
    "hi": "-2461315941/34359738368",
    "approx": "-0.07163",
    "mult": 1
   },
   {
    "lo": "-63437409/8589934592",
    "hi": "-253747263/34359738368",
    "approx": "-0.00739",
    "mult": 1
   },
   {
    "lo": "0",
    "hi": "0",
    "approx": "0.00000",
    "mult": 1
   }
  ]
 }
}
"""


# SHA-256 of the JSON list of real_roots(row).to_json(), keys sorted, over
# the packaged appendix rows in file order: every interval endpoint of
# every packaged row, pinned.
PACKAGED_ROOTS_SHA256 = "d2d02508895ac53024a0c7f4aea6a218d5ffbb4b96de13f9e5f97743e3707523"


class TestRoots:
    def test_coeffs(self, capsys):
        status, out = run(capsys, "roots", "--coeffs", "0 1 4 1")
        assert status == 0
        assert "-3.73205" in out and "-0.26795" in out
        assert "all real: True; nonpositive: True" in out

    def test_from_table(self, capsys, tmp_path):
        status, out = run(
            capsys, "roots", "--n", "4", "--t", "2", "--format", "json",
            "--cache-dir", str(tmp_path),
        )
        assert status == 0
        blob = json.loads(out)
        assert blob["poly"] == {"coeffs": [0, 1, 10, 10, 1]}
        assert blob["report"]["all_real"] is True

    def test_descent_polynomial_json_is_byte_stable(self, capsys, tmp_path):
        status, out = run(
            capsys, "roots", "--n", "8", "--t", "3", "--format", "json",
            "--cache-dir", str(tmp_path),
        )
        assert status == 0
        assert out == ROOTS_N8_T3_JSON

    def test_packaged_row_reports_are_pinned(self):
        entries = enumeration.load_reference_tables()
        blob = json.dumps(
            [real_roots(IntPoly.from_coeffs(e["coeffs"])).to_json() for e in entries],
            sort_keys=True,
        )
        assert len(entries) == 55
        assert hashlib.sha256(blob.encode()).hexdigest() == PACKAGED_ROOTS_SHA256

    def test_missing_arguments(self, capsys):
        for argv in (
            ["roots"], ["roots", "--n", "4"], ["roots", "--coeffs", "0 0"],
            ["roots", "--coeffs", "0 1 4 1", "--width", "0"],
            ["roots", "--coeffs", "0 1 4 1", "--width", "-1"],
        ):
            status = main(argv)
            err = capsys.readouterr().err
            assert status == 2
            assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("width", ["x", "1/0", "1/"])
    def test_unparsable_width(self, capsys, width):
        status = main(["roots", "--coeffs", "0 1 4 1", "--width", width])
        captured = capsys.readouterr()
        assert (status, captured.out) == (2, "")
        assert captured.err == f"error: cannot parse width from {width!r}\n"


class TestAppendix:
    def test_small_scale_ok(self, capsys, tmp_path):
        status, out = run(
            capsys, "appendix", "--max-n", "5", "--cache-dir", str(tmp_path)
        )
        assert status == 0
        assert "VERIFIED" in out

    def test_corrupted_golden_names_entry(self, capsys, tmp_path):
        from revstack.enumeration import load_reference_tables

        entries = [dict(e) for e in load_reference_tables()]
        victim = next(e for e in entries if e["n"] == 4 and e["t"] == 1)
        victim["coeffs"] = list(victim["coeffs"])
        victim["coeffs"][2] += 1
        golden = tmp_path / "golden.json"
        golden.write_text(json.dumps({"format_version": 1, "entries": entries}))
        status, out = run(
            capsys, "appendix", "--max-n", "4", "--golden", str(golden),
            "--cache-dir", str(tmp_path / "cache"),
        )
        assert status == 1
        assert "(n=4, t=1)" in out

    @pytest.mark.parametrize("entries", [
        5,
        [5],
        [{"n": 2, "coeffs": [0, 1, 1], "roots": [-1, 0]}],
        [{"n": 2, "t": 2, "coeffs": [0, 1, 1], "roots": [-1, 0]}],
        [{"n": 0, "t": 0, "coeffs": [0, 1], "roots": [0]}],
        [{"n": "2", "t": 1, "coeffs": [0, 1, 1], "roots": [-1, 0]}],
        [{"n": 2, "t": 1.0, "coeffs": [0, 1, 1], "roots": [-1, 0]}],
        [{"n": 2, "t": 1, "coeffs": "x", "roots": [-1, 0]}],
        [{"n": 2, "t": 1, "coeffs": [0, 1, 1.5], "roots": [-1, 0]}],
        [{"n": 2, "t": 1, "coeffs": [0, 1, 1], "roots": "x"}],
        [{"n": 2, "t": 1, "coeffs": [0, 1, 1], "roots": [-1, "0"]}],
    ])
    def test_malformed_golden_entries(self, capsys, tmp_path, entries):
        golden = tmp_path / "golden.json"
        golden.write_text(json.dumps({"format_version": 1, "entries": entries}))
        status = main(["appendix", "--max-n", "3", "--golden", str(golden), "--no-cache"])
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_missing_golden_file(self, capsys, tmp_path):
        status = main(["appendix", "--max-n", "1", "--golden", str(tmp_path / "absent.json"),
                       "--no-cache"])
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("content, message", [
        (b"not json", "cannot parse reference tables from {!r}"),
        (b'{"format_version": 1, "entries": ["\xff"]}', "cannot parse reference tables from {!r}"),
        (b"[1]", "{}: not a reference-table object"),
        pytest.param(b"[" * 200_000 + b"]" * 200_000, "cannot parse reference tables from {!r}",
                     id="too-deeply-nested"),
    ])
    def test_unreadable_golden_file_is_named(self, capsys, tmp_path, content, message):
        golden = tmp_path / "golden.json"
        golden.write_bytes(content)
        status = main(["appendix", "--max-n", "1", "--golden", str(golden), "--no-cache"])
        captured = capsys.readouterr()
        assert (status, captured.out) == (2, "")
        assert captured.err == f"error: {message.format(str(golden))}\n"

    def test_golden_file_without_entries(self, capsys, tmp_path):
        golden = tmp_path / "golden.json"
        for blob in ({"format_version": 1}, {"format_version": 1, "entries": []},
                     {"format_version": 2, "entries": []}):
            golden.write_text(json.dumps(blob))
            status = main(["appendix", "--max-n", "1", "--golden", str(golden), "--no-cache"])
            err = capsys.readouterr().err
            assert status == 2, blob
            assert err.startswith("error: ") and len(err.splitlines()) == 1, blob


class TestUsageErrors:
    def test_unknown_verb(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_permutation(self, capsys):
        status, _ = run(capsys, "degree", "1 2 2")
        assert status == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("pattern", ["", "   "])
    def test_empty_pattern(self, capsys, pattern):
        status = main(["pattern", "--pattern", pattern, "21"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err == "error: empty pattern\n"

    @pytest.mark.parametrize("text", ["²", "1 ²", "1²", "2 1 ²", "a"])
    @pytest.mark.parametrize("argv, what", [
        (["pattern", "--pattern", "{}", "21"], "pattern"),
        (["degree", "{}"], "permutation"),
        (["roots", "--coeffs", "{}"], "coefficients"),
    ])
    def test_unparseable_digits(self, capsys, text, argv, what):
        # "²" is a digit to str.isdigit but not to int; every parser names
        # the text it could not read, not int's message
        status = main([arg.format(text) for arg in argv])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err == f"error: cannot parse {what} from {text!r}\n"

    @pytest.mark.parametrize("argv", [
        ["table", "--n", "3", "--no-cache"],
        ["verify", "--suite", "theorems", "--n", "3"],
    ])
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one(self, capsys, argv, jobs):
        status = main([*argv, "--jobs", jobs])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err == f"error: --jobs must be at least 1 (got {jobs})\n"

    @pytest.mark.parametrize("max_n", ["-1", "-7"])
    def test_negative_max_n(self, capsys, max_n):
        status = main(["appendix", "--max-n", max_n, "--no-cache"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err == f"error: --max-n must be non-negative (got {max_n})\n"

    def test_max_n_zero_checks_only_roots(self, capsys):
        status = main(["appendix", "--max-n", "0", "--no-cache"])
        captured = capsys.readouterr()
        assert status == 0
        assert captured.out == ("coefficients enumerated for n in []; roots checked for every"
                                " listed entry\nVERIFIED\n")
