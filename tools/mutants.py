"""Mutation gate: each fast path's oracle must catch a planted fault.

Every row of MUTANTS names a source file, an exact snippet, its
replacement and the tests that must fail once the snippet is replaced.
Each mutant is applied to a fresh copy of `src` and `tests` in a
temporary directory, and only its tests run there.  The gate fails when a
snippet does not occur exactly once (the row no longer applies), when the
listed tests do not all pass on the unmutated copy, or when a mutant
survives.  Usage, from the repository root:

    python tools/mutants.py

prints one `name = killed` or `name = survived` line per row, then the
total time, and exits 1 if any row failed.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str          # relative to the repository root
    snippet: str       # must occur exactly once in the file
    replacement: str
    tests: tuple       # pytest node ids, at least one must fail


MUTANTS = (
    Mutant("nabla_on_tensor_drops_d_alpha", "src/nccalc/geometry.py",
           "        for pair, c in d_form(spec, alpha).component(2).items():\n"
           "            _acc(comps, (pair, v), c)\n",
           "",
           ("tests/test_geometry.py::test_nabla_on_tensor_against_per_coefficient_reference",)),
    Mutant("nabla_theta_memo_on_spec", "src/nccalc/geometry.py",
           "        self._nabla_theta = Memo(partial(_nabla_theta_image, spec, self.V))\n",
           "        self._nabla_theta = spec.__dict__.setdefault(\n"
           "            \"_nabla_theta\", Memo(partial(_nabla_theta_image, spec, self.V)))\n",
           ("tests/test_geometry.py::test_nabla_theta_memo_is_per_connection",)),
    # the first connection's transport images answer for every connection
    Mutant("transport_table_on_spec", "src/nccalc/geometry.py",
           "        self._transport = Memo(partial(_transport_image, spec, self.V))\n",
           "        self._transport = spec.__dict__.setdefault(\n"
           "            \"_transport\", Memo(partial(_transport_image, spec, self.V)))\n",
           ("tests/test_geometry.py::test_transport_table_is_per_connection",)),
    # h[s''] keeps the sums of the earlier s1 values
    Mutant("compatibility_sum_kept_across_s1", "src/nccalc/geometry.py",
           "        for s1 in labels:\n            h = {}",
           "        h = {}\n        for s1 in labels:",
           ("tests/test_geometry.py::test_metric_compatibility_components_against_unhoisted_sum",)),
    Mutant("report_add_drops_parts", "src/nccalc/report.py",
           "Check(path, bool(ok), () if ok else detail)",
           "Check(path, bool(ok), ())",
           ("tests/test_report.py::test_failing_details_formatted_only_when_read",
            "tests/test_report.py::test_lazy_details_equal_eager_formatting_and_survive_merge")),
    # the first op seen for (a, b) answers every later op on (a, b)
    Mutant("combine_memo_key_without_op", "src/nccalc/scalar.py",
           "        return _combine_memo(op, a, b)\n",
           "        return _combine_memo(_combined.__dict__.setdefault((a, b), op), a, b)\n",
           ("tests/test_scalar.py::test_cancellation_memo_against_unreduced_make",)),
    # a / b and b / a share one entry
    Mutant("combine_memo_swaps_divisor", "src/nccalc/scalar.py",
           "        return _combine_memo(op, a, b)\n",
           "        return _combine_memo(op, *sorted((a, b), key=hash))\n",
           ("tests/test_scalar.py::test_cancellation_memo_against_unreduced_make",)),
    # each atom of the fixture rows answers zero
    Mutant("identity_delta_is_zero", "src/nccalc/presets/fixtures.py",
           "            return delta(self.spec, arg)\n",
           "            return GradedForm.zero(self.spec)\n",
           ("tests/test_presets.py::test_identity_atoms_match_direct_calls",)),
    Mutant("identity_d_of_a_form_is_zero", "src/nccalc/presets/fixtures.py",
           "            return d_form(self.spec, arg)\n",
           "            return GradedForm.zero(self.spec)\n",
           ("tests/test_presets.py::test_identity_atoms_match_direct_calls",)),
    Mutant("identity_vartheta_is_zero", "src/nccalc/presets/fixtures.py",
           '_ATOMS = {"vartheta": vartheta,',
           '_ATOMS = {"vartheta": GradedForm.zero,',
           ("tests/test_presets.py::test_identity_atoms_match_direct_calls",)),
    Mutant("identity_zeta_is_zero", "src/nccalc/presets/fixtures.py",
           '"zeta": lambda spec: spec.two_forms.zeta_form()}',
           '"zeta": GradedForm.zero}',
           ("tests/test_presets.py::test_identity_atoms_match_direct_calls",)),
    # a negative denominator keeps its sign
    Mutant("rational_without_sign_fix", "src/nccalc/scalar.py",
           "    g = gcd(n, d)\n    if d < 0:\n        g = -g\n",
           "    g = gcd(n, d)\n",
           ("tests/test_scalar.py::test_integer_lane_against_fractions",)),
    # the overlap cap that let a non-confluent file load
    Mutant("critical_pairs_capped_at_6_letters", "src/nccalc/algebra.py",
           "            for sup, i in spots:\n",
           "            for sup, i in [(w, i) for w, i in spots if len(w) <= 6]:\n",
           ("tests/test_cli.py::test_nonconfluent_file_exit_3",)),
    # the heuristic gcd takes its candidate once it divides a, b unchecked
    Mutant("heuristic_gcd_without_dividing_b", "src/nccalc/scalar.py",
           "qa, qb = _p_div_exact(a, h), _p_div_exact(b, h)",
           "qa, qb = _p_div_exact(a, h), b",
           ("tests/test_scalar.py::test_gcd_cofactors_against_sympy",)),
    # a point whose candidate does not divide ends the search: "coprime"
    Mutant("gcd_search_gives_up_after_one_point", "src/nccalc/scalar.py",
           "        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011\n",
           "        return {one: c}, a, b\n",
           ("tests/test_scalar.py::test_gcd_cofactors_takes_a_third_point",)),
    # a monomial denominator keeps the power it shares with the numerator
    Mutant("make_monomial_lane_without_common_power", "src/nccalc/scalar.py",
           "            m = _common_power(num, e)\n",
           "            m = (0,) * len(e)\n",
           ("tests/test_scalar.py::test_cancellation_of_inverse_weight",
            "tests/test_scalar.py::test_make_and_add_fast_paths_against_sympy_cancel")),
    # the expansion along a row forgets the sign of its column: a permanent
    Mutant("determinant_without_column_sign", "src/nccalc/linalg.py",
           "_acc(level, S | 1 << j, -term if (S >> j).bit_count() & 1 else term)",
           "_acc(level, S | 1 << j, term)",
           ("tests/test_linalg.py::test_det_cofactor_matches_permutation_sum_on_shift_calculi",)),
    # one sign flipped in the reverse sweep of the adjugate
    Mutant("adjugate_sweep_sign_flipped", "src/nccalc/linalg.py",
           "_acc(below, S, -term if odd else term)",
           "_acc(below, S, term if odd else -term)",
           ("tests/test_linalg.py::test_det_adjugate_against_permutation_sums",)),
    # the inverse over a commutative algebra forgets to divide by the determinant
    Mutant("commutative_inverse_without_det_inverse", "src/nccalc/linalg.py",
           "    return [[dinv * x for x in row] for row in adj], det\n",
           "    return adj, det\n",
           ("tests/test_linalg.py::test_theta_solve_coefficients_invert_the_matrix",
            "tests/test_calculus.py::test_solve_theta_shift")),
    # a wedge product keeps theta-words outside the 2-form basis
    Mutant("wedge_without_two_form_reduce", "src/nccalc/calculus.py",
           "        return GradedForm._build(self.spec, comps)\n",
           "        return GradedForm(self.spec, comps)\n",
           ("tests/test_calculus.py::test_wedge_reduction_shift",)),
    # e_s answers from the memo of the first direction, whatever s is
    Mutant("e_memo_shared_across_directions", "src/nccalc/calculus.py",
           "_linear_image(f.terms.items(), self._e_images[s])",
           "_linear_image(f.terms.items(), self._e_images[self.directions.labels[0]])",
           ("tests/test_calculus.py::test_e_memo_against_unmemoized_e",)),
    # d(w theta^u) answers from the first theta-word met with the word w
    Mutant("d_memo_keyed_without_theta_word", "src/nccalc/calculus.py",
           "    pairs = (((u, w), k) for u, c in",
           "    pairs = ((spec.__dict__.setdefault(w, (u, w)), k) for u, c in",
           ("tests/test_calculus.py::test_d_form_memo_against_unmemoized_d",)),
    # new rules keep the normal forms of the rules before them
    Mutant("nf_memo_kept_across_new_rules", "src/nccalc/algebra.py",
           "        self._nf = Memo(self._reduce_word)",
           "        self._nf = self.__dict__.setdefault(\"_nf\", Memo(self._reduce_word))",
           ("tests/test_algebra.py::test_reducer_against_depth_first_reference",)),
    # a file's byte-order mark reaches the section parser
    Mutant("read_without_bom_strip", "src/nccalc/cli.py",
           '    return text.removeprefix("\\ufeff")\n',
           "    return text\n",
           ("tests/test_cli.py::test_file_with_a_byte_order_mark_reads_as_without",)),
    # the elimination clears a pivot column from the rows below it only
    Mutant("elimination_without_back_substitution", "src/nccalc/linalg.py",
           "        for other in (*free, *pivots.values()):\n",
           "        for other in free:\n",
           ("tests/test_linalg.py::test_solve_linear_against_sympy",)),
    # a rule may rewrite a word to a larger one
    Mutant("relation_order_unchecked", "src/nccalc/algebra.py",
           "            if word_key(w) >= lk:\n",
           "            if False:\n",
           ("tests/test_files.py::test_malformed_file_is_one_error_line"
            "[relation_not_order_decreasing]",
            "tests/test_algebra.py::test_presentation_rejects_invalid_input"
            "[order_increasing_rule]")),
)


def _copy_tree(dest):
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))


def _pytest(tree, tests):
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=tree, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def _mutated(mutant):
    """The file's text with the snippet replaced; exits if it does not occur once."""
    source = (ROOT / mutant.path).read_text()
    count = source.count(mutant.snippet)
    if count != 1:
        raise SystemExit(f"{mutant.name}: snippet occurs {count} times in {mutant.path}")
    return source.replace(mutant.snippet, mutant.replacement)


def main():
    rows = MUTANTS
    start = time.perf_counter()
    sources = [_mutated(m) for m in rows]  # every row applies before anything runs
    failed = False
    with tempfile.TemporaryDirectory(prefix="nccalc-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy_tree(clean)
        code, out = _pytest(clean, sorted({t for m in rows for t in m.tests}))
        if code != 0:
            print(out)
            raise SystemExit("the listed tests fail on the unmutated copy")
        for m, source in zip(rows, sources):
            tree = Path(tmp) / m.name
            _copy_tree(tree)
            (tree / m.path).write_text(source)
            code, out = _pytest(tree, m.tests)
            # exit 1: the tests ran and one failed; 2-5: they never ran
            killed = code == 1
            print(f"{m.name} = {'killed' if killed else 'survived'}")
            if not killed:
                print(out)
                failed = True
            shutil.rmtree(tree)
    print(f"seconds = {time.perf_counter() - start:.1f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
