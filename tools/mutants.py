"""Mutation testing of the package's kernels: which tests fail on each mutant.

Run from anywhere, with no arguments (standard library only; pytest must be
importable by this interpreter):

    python tools/mutants.py

Each mutant below is one exact text replacement, which must match exactly
once, in one module of ``src/qccsim``.  For each mutant the harness copies
``src/``, ``tests/``, ``demos/`` and ``pyproject.toml`` to a fresh temporary
directory, applies the mutation there and runs the whole suite there, every
``tests/test_*.py``, without ``-x`` (``pyproject.toml``'s ``testpaths`` and
``pythonpath = ["src"]`` then collect it and import the copy).  The working
tree is only read.  An unmutated run of the same suite must pass first.

The report goes to ``mutants.json`` in the repository root: the full kill
matrix, that is, per mutant every test that fails on it (its killers); per
test, the mutants it kills; and the tests that ran and killed nothing.  Its
summary names the mutants that have a single killer.  A mutant no test kills
must carry a written reason why it is equivalent to the package as every
input reaches it; the run exits 1 if one survives without a reason or one
with a reason is killed, and 2 if the baseline fails or a mutation does not
match.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
REPORT = ROOT / "mutants.json"
WORKERS = 2  # pytest processes at once
TIMEOUT_S = 600  # a mutant whose tests run longer counts as killed


class Mutant(NamedTuple):
    name: str
    module: str
    old: str
    new: str
    equivalent: str | None = None  # why no test can kill it


M = Mutant
MUTANTS = [
    # protocol: the Born table, its parities and edges, the closed form, the sampler
    M("outcome_table.bob_sign", "protocol", "-beta * sb, beta * cb", "beta * sb, beta * cb"),
    M("outcome_table.alice_sign", "protocol", "b00 * ca - b10 * sa", "b00 * ca + b10 * sa"),
    M("outcome_table.swap_angles", "protocol", "(math.cos(phi1), math.sin(phi1))",
      "(math.cos(phi1), math.sin(phi2))"),
    M("wins.row3_even", "protocol", "(even2, _), (_, odd3)", "(even2, _), (odd3, _)"),
    M("wins.row0_odd", "protocol", "(even0, _), (even1, _)", "(_, even0), (even1, _)"),
    M("outcome_edges.drop_p1", "protocol", "e1 = p0 + p1", "e1 = p0"),
    M("outcome_edges.drop_p2", "protocol", "float(e1 + p2)", "float(e1)"),
    M("exact.parity", "protocol", "(p0 + p3, p1 + p2)", "(p0 + p2, p1 + p3)"),
    M("exact.mean", "protocol", "p10 + p11) / 4.0", "p10 + p11) / 3.0"),
    M("closed_form.q_sign", "protocol", "0.125 * (1.0 - 2.0 * ab)", "0.125 * (1.0 + 2.0 * ab)"),
    M("closed_form.b_half", "protocol", "0.5 * ab * s1", "0.25 * ab * s1"),
    M("closed_form.q_swap", "protocol", "(s2**2 - s1**2)", "(s1**2 - s2**2)"),
    M("closed_form.a_angle", "protocol", "0.25 * math.cos(2.0 * phi1)",
      "0.25 * math.cos(2.0 * phi2)"),
    M("run_once.bisect_left", "protocol", "bisect.bisect_right", "bisect.bisect_left"),
    M("monte_carlo.parity_edges", "protocol", "(us >= first[row]) & (us < last[row])",
      "(us > first[row]) & (us <= last[row])"),
    M("monte_carlo.twin_advance", "protocol", "advance(trials)", "advance(trials + 1)"),
    M("monte_carlo.blocks_swapped", "protocol", "uniforms.advance(trials)",
      "inputs.advance(trials)"),
    M("monte_carlo.uniform_bits", "protocol", "us >>= np.uint64(11)",
      "us >>= np.uint64(12)"),
    M("monte_carlo.std_error", "protocol", "(1.0 - estimate) / trials",
      "(1.0 - estimate) / (trials - 1)"),
    M("monte_carlo.counts_key", "protocol", "(row >> 1, row & 1)", "(row & 1, row >> 1)"),
    M("monte_carlo.trials_check", "protocol", "if trials < 1:", "if trials < 0:"),
    # frees the old rows before this chunk's words are read: the same peak, more page faults
    M("monte_carlo.free_order", "protocol", "words = inputs.random_raw(n)",
      "row = words = inputs.random_raw(n)"),
    M("input_rows.x_bit", "protocol", "(words >> u64(29))", "(words >> u64(30))"),
    M("input_rows.y_bit", "protocol", "(words >> u64(62))", "(words >> u64(63))"),
    M("angle_set.finite", "protocol", "math.isfinite(phi1) and math.isfinite(phi2)",
      "math.isfinite(phi1)"),
    M("angle_set.max_phi2", "protocol", "> _MAX_ANGLE or abs(phi2) > _MAX_ANGLE", "> _MAX_ANGLE"),
    M("input_pair.x0", "protocol", "return self.x & 1", "return (self.x >> 1) & 1"),
    M("transcript.msg_alice", "protocol", "msg_alice = a ^ inputs.x1", "msg_alice = a ^ inputs.x0"),
    # state: the pair's check and the canonical family
    M("pair.norm_abs", "state", "off = abs(norm - 1.0)", "off = norm - 1.0"),
    M("shared_state.beta_clamp", "state", "min(math.sin(chi), 0.0)", "math.sin(chi)"),
    M("shared_state.upper_tol", "state", "chi <= CHI_DOMAIN_TOL", "chi <= 0.0"),
    M("shared_state.lower_tol", "state", "-math.pi / 4 - CHI_DOMAIN_TOL <= chi",
      "-math.pi / 4 <= chi"),
    M("epr.sign", "state", "SchmidtPair(math.sqrt(0.5), -math.sqrt(0.5))",
      "SchmidtPair(math.sqrt(0.5), math.sqrt(0.5))"),
    # optimize: the closed-form optimum and the Horodecki bound
    M("optimum.ab_sign", "optimize", "if ab > 0.0:", "if ab >= 0.0:"),
    M("optimum.root", "optimize", "1.0 + 4.0 * m * m", "1.0 + 2.0 * m * m"),
    M("optimum.den", "optimize", "den = 1.0 + 2.0 * m", "den = 1.0 + m"),
    M("optimum.phi1_sign", "optimize", "phi1 = -0.5 * math.asin", "phi1 = 0.5 * math.asin"),
    M("optimum.phi2_root", "optimize", "(1.0 + 1.0 / root)", "(1.0 - 1.0 / root)"),
    M("optimum.t", "optimize", "4.0 * ab / root", "2.0 * ab / root"),
    M("optimum.p_max", "optimize", "0.5 + 0.25 * root", "0.5 + 0.25 * root * root"),
    M("optimum.phi1_root", "optimize", "root + 1.0", "root"),
    M("optimum.phi2_half", "optimize", "phi2 = 0.5 * math.asin", "phi2 = 0.25 * math.asin"),
    M("bound.top_two", "optimize", "sorted(diagonal)[1:]", "sorted(diagonal)[:2]"),
    M("bound.zz", "optimize", "alpha * alpha + beta * beta)", "alpha * alpha)"),
    M("bound.scale", "optimize", "s2 * s2) / 4.0", "s2 * s2) / 2.0"),
    M("bound.half", "optimize", "0.5 + math.sqrt", "0.25 + math.sqrt"),
    # concentration
    M("coin.two", "concentration", "min(1.0, 2.0 * pair.beta", "min(1.0, pair.beta"),
    M("coin.clip", "concentration", "min(1.0, 2.0 * pair.beta * pair.beta)",
      "2.0 * pair.beta * pair.beta"),
    M("value.slope", "concentration", "EPR_STRATEGY_VALUE - 1.5", "EPR_STRATEGY_VALUE - 1.0"),
    M("run.coin_side", "concentration", "if rng.random() < concentration",
      "if rng.random() > concentration"),
    M("run.fallback", "concentration", "from_outcome(inputs, 0, 0)", "from_outcome(inputs, 0, 1)"),
    M("epr_angles.phi1", "concentration", "AngleSet(-math.pi / 16,", "AngleSet(math.pi / 16,"),
    # classical: the inputs check, the search and its tie-breaks
    M("inputs.x_upper", "classical", "0 <= operator.index(x) <= 3", "0 <= operator.index(x) <= 4"),
    M("inputs.y_lower", "classical", "0 <= operator.index(y) <= 3", "-1 <= operator.index(y) <= 3"),
    M("evaluate.both_right", "classical", "run.out_alice == want and run.out_bob == want",
      "run.out_alice == want or run.out_bob == want"),
    M("target.and", "classical", "((x & 1) & (y & 1))", "((x & 1) | (y & 1))"),
    M("run_protocol.sequential", "classical", "p.msg_bob[2 * y + msg_a]", "p.msg_bob[2 * y]"),
    M("baseline.high_bit", "classical", "((i >> 1) >> 1) ^ (i & 1)", "(i >> 1) ^ (i & 1)"),
    M("patterns.halves", "classical", "(_EVEN[mb], _ODD[mb])", "(_ODD[mb], _EVEN[mb])"),
    M("output_counts.sent_0", "classical", "g0 = tables[15 ^ ma]", "g0 = tables[ma]"),
    M("input_scores.drop_max", "classical", "max(_POPCOUNT[p & r1], _POPCOUNT[p & r0])",
      "_POPCOUNT[p & r1]"),
    M("subset_scores.parent", "classical", "tables[xs & (xs - 1)]", "tables[xs & (xs + 1)]"),
    M("majority.tie", "classical", "if vote > 0)", "if vote >= 0)"),
    M("majority.weight", "classical", "+= 2 * want - 1", "+= want"),
    M("witness.last_ma", "classical", "ma = tops.index(count)",
      "ma = 15 - tops[::-1].index(count)"),
    # cli: the state flags, optimal's two checks, the sweep grid and simulate's z-score
    M("state.amplitude_tol", "cli", "if abs(norm * norm - 1.0) > AMPLITUDE_NORM_TOL:",
      "if norm * norm - 1.0 > AMPLITUDE_NORM_TOL:"),
    M("state.note_tol", "cli", "if abs(norm * norm - 1.0) > NORM_TOL:",
      "if abs(norm * norm - 1.0) > AMPLITUDE_NORM_TOL:"),
    M("state.domain_check", "cli", "    make_shared_state(chi)  # called", "    # called"),
    M("state.chi", "cli", "math.atan2(pair.beta, pair.alpha)", "math.atan2(pair.alpha, pair.beta)"),
    M("optimal.bound_two_sided", "cli", "if abs(bound - sol.p_max) >", "if (bound - sol.p_max) >"),
    M("optimal.born_check", "cli", "if discrepancy > OPTIMAL", "if discrepancy > 100 * OPTIMAL"),
    M("linspace.div", "cli", "div = num - 1", "div = num"),
    M("linspace.zero_step", "cli", "if step == 0:", "if step != 0:"),
    M("linspace.last", "cli", "    grid[-1] = stop\n", ""),
    M("sweep.min_steps", "cli", "if args.steps < 2:", "if args.steps < 1:"),
    M("sweep.epsilon", "cli", "epsilon=abs(math.tan(chi))", "epsilon=math.tan(chi)"),
    M("simulate.z_sign", "cli", "(result.estimate - sol.p_max) / result.std_error",
      "(sol.p_max - result.estimate) / result.std_error"),
    # _entry: strict JSON and its meta block, text reports, the float flags, exit codes
    M("json.first_record_only", "_entry", "chain.from_iterable(records)", "records[0]"),
    M("json.str", "_entry", "map(float.__repr__, r)", "map(str, r)",
      equivalent="str and repr of a float are the same text in Python 3, and every record"
                 " value is a float"),
    M("finite_float.nan_only", "_entry", "if not math.isfinite(value):", "if math.isnan(value):"),
    M("json.meta_seed", "_entry", '"seed": getattr(args, "seed", None)', '"seed": None'),
    M("kv.float_format", "_entry", "_FLOAT % value if isinstance(value, float) else str(value)",
      "str(value)"),
    M("finite_float.text", "_entry", "        value = math.nan\n", "        value = 0.0\n"),
    M("main.usage_code", "_entry", "        return 2\n", "        return 1\n"),
]


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__")
    for name in ("src", "tests", "demos"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest)


def _child_env() -> dict:
    # so nothing but the copy's pythonpath can put a package on sys.path
    return {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}


def _pytest(mutant: Mutant | None = None) -> tuple[list[str], list[str], float]:
    """``(tests run, tests failed, seconds)`` of every test file in a fresh copy."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="qccsim-mutant-") as tmp:
        dest = Path(tmp)
        _copy(dest)
        if mutant is not None:
            path = dest / "src" / "qccsim" / f"{mutant.module}.py"
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
        xml = dest / "junit.xml"
        argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no",
                f"--junitxml={xml}"]
        try:
            subprocess.run(argv, cwd=dest, env=_child_env(), stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return [], ["(timeout)"], time.perf_counter() - start
        if not xml.exists():
            return [], ["(no pytest report)"], time.perf_counter() - start
        ran, failed = [], []
        for case in ET.parse(xml).iter("testcase"):
            test = "::".join(filter(None, (case.get("classname"), case.get("name"))))
            ran.append(test)
            if case.find("failure") is not None or case.find("error") is not None:
                failed.append(test)
    return ran, failed, time.perf_counter() - start


def _check_mutations() -> list[str]:
    problems = []
    for mutant in MUTANTS:
        text = (ROOT / "src" / "qccsim" / f"{mutant.module}.py").read_text()
        if text.count(mutant.old) != 1:
            problems.append(f"{mutant.name}: matches {text.count(mutant.old)} times")
    if len({mutant.name for mutant in MUTANTS}) != len(MUTANTS):
        problems.append("mutant names repeat")
    return problems


def main() -> int:
    problems = _check_mutations()
    if problems:
        print(*problems, sep="\n")
        return 2
    ran, failed, seconds = _pytest()
    print(f"baseline: {len(ran)} tests, {len(failed)} failed, {seconds:.1f} s")
    if failed or not ran:
        print(*failed, sep="\n")
        return 2

    def run(mutant: Mutant) -> dict:
        ran, killers, seconds = _pytest(mutant)
        print(f"{mutant.module}.{mutant.name}: {len(killers)} of {len(ran)} tests fail"
              f" ({seconds:.1f} s)", flush=True)
        return {"name": mutant.name, "module": mutant.module, "old": mutant.old,
                "new": mutant.new, "equivalent": mutant.equivalent, "killed": bool(killers),
                "seconds": round(seconds, 1), "ran": ran, "killers": killers}

    start = time.perf_counter()
    with ThreadPoolExecutor(WORKERS) as pool:
        results = list(pool.map(run, MUTANTS))
    kills, ran_any = {}, set()
    for result in results:
        ran_any.update(result.pop("ran"))
        for test in result["killers"]:
            kills.setdefault(test, []).append(result["name"])
    survived = [r["name"] for r in results if not r["killed"] and not r["equivalent"]]
    stale = [r["name"] for r in results if r["killed"] and r["equivalent"]]
    summary = {"mutants": len(results), "killed": sum(r["killed"] for r in results),
               "equivalent": sum(bool(r["equivalent"]) for r in results),
               "survived": survived, "killed_but_marked_equivalent": stale,
               "single_killer": sorted(r["name"] for r in results if len(r["killers"]) == 1),
               "tests_run": len(ran_any), "tests_killing_nothing": len(ran_any - kills.keys()),
               "baseline_tests": len(ran), "seconds": round(time.perf_counter() - start, 1)}
    REPORT.write_text(json.dumps({
        "summary": summary, "mutants": results, "kills": dict(sorted(kills.items())),
        "killing_nothing": sorted(ran_any - kills.keys())}, indent=1) + "\n")
    print(json.dumps(summary, indent=1))
    print(f"report: {REPORT}")
    return 1 if survived or stale else 0


if __name__ == "__main__":
    sys.exit(main())
