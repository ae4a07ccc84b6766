"""The four benchmark workloads: seeded job lists and the check on each job.

A job list is an endless generator drawn from ``random.Random`` seeded with
the workload name and the benchmark seed, so the same seed gives the same
jobs in the same order however many of them a run consumes.  Job kinds come
in shuffled blocks with fixed shares, so every run of a workload sees the
same mix.  Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written down in METRICS.md.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

import oracle

TOL = 1e-9  # text output carries 12 significant digits
Z_LIMIT = 6.0
CSV_HEADER = "chi_deg,alpha,beta,epsilon,phi1,phi2,p_max,p_concentration,p00,p01,p10,p11"
ROUNDS_PER_SESSION = 5000


@dataclass(frozen=True)
class Job:
    """One unit of work.  CLI jobs run ``python -m qccsim *argv``; rounds jobs
    run in process.  ``params`` holds what the check needs to know."""

    kind: str
    argv: tuple[str, ...] = ()
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: Callable[[int], Iterator[Job]]
    tail_pct: float  # the reported tail percentile
    in_process: bool
    trace_jobs: int  # jobs in each pass of the traced run

    @property
    def min_jobs(self) -> int:
        """Jobs needed for ten samples beyond the tail percentile."""
        return math.ceil(10 / (1 - self.tail_pct / 100) - 1e-9)


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _fmt_choice(rng: random.Random, formats: tuple[str, str] = ("text", "json")) -> str:
    return formats[rng.random() < 0.5]


# ---------------------------------------------------------------- analytic


def _exact_job(rng: random.Random) -> Job:
    fmt = _fmt_choice(rng)
    phi1, phi2 = (f"{rng.uniform(-math.pi / 2, math.pi / 2):.5f}" for _ in range(2))
    if rng.random() < 1 / 3:
        # Amplitudes typed to 5 decimals, away from the domain edges, as a user would.
        alpha, beta = oracle.pair_from_chi_deg(rng.uniform(-44.0, -1.0))
        typed = (f"{alpha:.5f}", f"{beta:.5f}")
        state = ("--alpha", typed[0], "--beta", typed[1])
        pair = oracle.pair_from_amplitudes(float(typed[0]), float(typed[1]))
    else:
        chi = f"{rng.uniform(-45.0, 0.0):.4f}"
        state = ("--chi", chi)
        pair = oracle.pair_from_chi_deg(float(chi))
    argv = ("exact", *state, "--phi1", phi1, "--phi2", phi2, "--format", fmt)
    return Job("exact", argv, {"fmt": fmt, "pair": pair, "phi": (float(phi1), float(phi2))})


def _optimal_job(rng: random.Random) -> Job:
    fmt = _fmt_choice(rng)
    chi = f"{rng.uniform(-45.0, 0.0):.4f}"
    return Job("optimal", ("optimal", "--chi", chi, "--format", fmt),
               {"fmt": fmt, "pair": oracle.pair_from_chi_deg(float(chi))})


def _sweep_job(rng: random.Random, stratum: int) -> Job:
    """Steps log-uniform over 31..2001, one draw from each third of the log range per block."""
    # The largest sweeps are always JSON, the costliest output, so every run reaches the peak RSS.
    fmt = "json" if stratum == 2 else _fmt_choice(rng, ("csv", "json"))
    lo, hi = math.log(31), math.log(2001)
    width = (hi - lo) / 3
    steps = round(math.exp(rng.uniform(lo + stratum * width, lo + (stratum + 1) * width)))
    start, end = f"{rng.uniform(-45.0, -30.0):.3f}", f"{rng.uniform(-15.0, 0.0):.3f}"
    argv = ("sweep", "--chi-start", start, "--chi-end", end, "--steps", str(steps), "--format", fmt)
    return Job("sweep", argv, {"fmt": fmt, "steps": steps})


def _invalid_job(rng: random.Random, variant: int) -> Job:
    """Input a user could type that the CLI must refuse with exit 2."""
    chi = f"{rng.uniform(-45.0, 0.0):.4f}"
    phi2 = f"{rng.uniform(-1.0, 1.0):.5f}"
    if variant == 0:
        bad = rng.choice((rng.uniform(1.0, 40.0), rng.uniform(-90.0, -46.0)))
        return Job("invalid-chi", (rng.choice(("exact", "optimal")), "--chi", f"{bad:.4f}"))
    if variant == 1:
        alpha, beta = oracle.pair_from_chi_deg(float(chi))
        scale = rng.uniform(1.01, 1.3)
        return Job("invalid-norm", ("exact", "--alpha", f"{alpha * scale:.5f}",
                                    "--beta", f"{beta * scale:.5f}"))
    if variant == 2:
        return Job("invalid-inf", ("exact", "--chi", chi, "--phi1", rng.choice(("inf", "-inf")),
                                   "--phi2", phi2))
    return Job("invalid-nan", ("exact", "--chi", chi, "--phi1", "nan", "--phi2", phi2))


def nan_probe_job(seed: int) -> Job:
    """``exact --phi1 nan``, which the CLI must refuse with exit 2.

    It is kept out of the timed job list, where every job must pass, and run
    once per ``analytic`` run as a probe whose outcome the report states.
    """
    return _invalid_job(_rng("nan-probe", seed), 3)


def analytic_jobs(seed: int) -> Iterator[Job]:
    """Blocks of ten: three each of exact, optimal and sweep, then one invalid
    job whose variant cycles chi-out-of-domain, unnormalized, inf."""
    rng = _rng("analytic", seed)
    block = 0
    while True:
        kinds = ["exact", "optimal", "sweep"] * 3
        rng.shuffle(kinds)
        strata = [0, 1, 2]
        rng.shuffle(strata)
        for kind in kinds:
            if kind == "exact":
                yield _exact_job(rng)
            elif kind == "optimal":
                yield _optimal_job(rng)
            else:
                yield _sweep_job(rng, strata.pop())
        yield _invalid_job(rng, block % 3)
        block += 1


# ---------------------------------------------------------------- sample


def sample_jobs(seed: int) -> Iterator[Job]:
    """Blocks of three simulate jobs at 1, 2 and 4 million trials, shuffled."""
    rng = _rng("sample", seed)
    while True:
        ladder = [1_000_000, 2_000_000, 4_000_000]
        rng.shuffle(ladder)
        for trials in ladder:
            fmt = _fmt_choice(rng)
            chi = f"{rng.uniform(-45.0, 0.0):.4f}"
            argv = ("simulate", "--chi", chi, "--trials", str(trials),
                    "--seed", str(rng.randrange(2**31)), "--format", fmt)
            yield Job("simulate", argv, {"fmt": fmt, "trials": trials,
                                         "pair": oracle.pair_from_chi_deg(float(chi))})


# ---------------------------------------------------------------- search


def search_jobs(seed: int) -> Iterator[Job]:
    """Blocks of three: one sequential and two simultaneous searches, shuffled.

    A sequential search costs about five simultaneous ones, so at a 1/3 share
    the median falls among simultaneous jobs and the p75 tail among
    sequential ones, both clear of the boundary at the 67th percentile.
    """
    rng = _rng("search", seed)
    while True:
        modes = ["sequential", "simultaneous", "simultaneous"]
        rng.shuffle(modes)
        for mode in modes:
            fmt = _fmt_choice(rng)
            yield Job(f"classical-{mode}", ("classical", "--mode", mode, "--format", fmt),
                      {"fmt": fmt, "mode": mode})


# ---------------------------------------------------------------- rounds


def rounds_jobs(seed: int) -> Iterator[Job]:
    """Sessions alternating run_once at the closed-form optimum and concentrate-then-play.

    The pattern is run_once, concentration, run_once: a concentration round
    costs about 1.5 run_once rounds, so at a 1/3 share the median falls among
    run_once sessions and the p95 tail among concentration ones.
    """
    rng = _rng("rounds", seed)
    while True:
        for kind in ("rounds-run_once", "rounds-concentration", "rounds-run_once"):
            yield Job(kind, params={"chi_deg": rng.uniform(-45.0, 0.0),
                                    "seed": rng.randrange(2**32), "rounds": ROUNDS_PER_SESSION})


def run_session(q, job: Job) -> bytearray:
    """Play one session in process through the library; one outcome byte per round.

    ``q`` holds the package modules, looked up at call time so that the
    traced run's wrappers are the ones called.
    """
    p = job.params
    pair = q.state.make_shared_state(math.radians(p["chi_deg"]))
    rng = q.np.random.default_rng(p["seed"])
    inputs = [q.protocol.InputPair(x, y) for x, y in rng.integers(0, 4, size=(p["rounds"], 2)).tolist()]
    if job.kind == "rounds-run_once":
        sol = q.optimize.optimal_closed_form(pair)
        angles = q.protocol.AngleSet(sol.phi1, sol.phi2)
        run_once = q.protocol.run_once
        play = lambda inp: run_once(pair, angles, inp, rng)  # noqa: E731
    else:
        simulate = q.concentration.simulate_concentration_run
        play = lambda inp: simulate(pair, inp, rng)  # noqa: E731
    outcomes = bytearray()
    for inp in inputs:
        t = play(inp)
        outcomes.append(t.a << 2 | t.b << 1 | t.success)
    return outcomes


def check_session(job: Job, outcomes: bytearray) -> str | None:
    """Success frequency within Z_LIMIT standard errors of the exact value."""
    alpha, beta = oracle.pair_from_chi_deg(job.params["chi_deg"])
    exact = oracle.p_max(alpha, beta) if job.kind == "rounds-run_once" else oracle.concentration_value(beta)
    n = len(outcomes)
    if n != job.params["rounds"]:
        return f"{n} rounds played, want {job.params['rounds']}"
    freq = sum(b & 1 for b in outcomes) / n
    z = (freq - exact) / math.sqrt(exact * (1 - exact) / n)
    return None if abs(z) <= Z_LIMIT else f"success frequency {freq} is {z:+.1f} SE from {exact}"


# ---------------------------------------------------------------- CLI checks


def parse_kv(text: str) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in text.splitlines())


def _record(job: Job, out: str) -> dict:
    return json.loads(out)["record"] if job.params["fmt"] == "json" else parse_kv(out)


def _near(rec: dict, key: str, want: float, tol: float = TOL) -> str | None:
    got = float(rec[key])
    return None if abs(got - want) <= tol else f"{key} = {got!r}, want {want!r}"


def _check_exact(job: Job, out: str) -> str | None:
    rec = _record(job, out)
    (alpha, beta), (phi1, phi2) = job.params["pair"], job.params["phi"]
    probs = oracle.per_input_success(alpha, beta, phi1, phi2)
    total = sum(probs) / 4
    wants = zip(("p00", "p01", "p10", "p11", "total", "closed_form"), (*probs, total, total))
    return next(filter(None, (_near(rec, key, want) for key, want in wants)), None)


def _check_optimal(job: Job, out: str) -> str | None:
    rec = _record(job, out)
    want = oracle.p_max(*job.params["pair"])
    return _near(rec, "p_max", want) or _near(rec, "numeric_p_max", want, 1e-6)


def _check_sweep(job: Job, out: str) -> str | None:
    if job.params["fmt"] == "json":
        rows = json.loads(out)["records"]
    else:
        header, *lines = out.splitlines()
        if header != CSV_HEADER:
            return f"csv header {header!r}"
        rows = [dict(zip(CSV_HEADER.split(","), map(float, line.split(",")))) for line in lines]
    if len(rows) != job.params["steps"]:
        return f"{len(rows)} rows, want {job.params['steps']}"
    for row in rows:
        if not row["p_max"] >= row["p_concentration"] - 1e-12:
            return f"p_max {row['p_max']!r} < p_concentration {row['p_concentration']!r}"
        bad = _near(row, "p_max", oracle.p_max(row["alpha"], row["beta"]))
        if bad:
            return bad
    return None


def _check_simulate(job: Job, out: str) -> str | None:
    trials = job.params["trials"]
    if job.params["fmt"] == "json":
        tallies = list(json.loads(out)["record"]["per_input_counts"].values())
    else:
        tallies = [tuple(map(int, v.split("/"))) for k, v in parse_kv(out).items()
                   if k.startswith("per_input ")]
    if len(tallies) != 4 or sum(d for _, d in tallies) != trials:
        return f"tallies {tallies} do not sum to {trials} trials"
    exact = oracle.p_max(*job.params["pair"])
    z = (sum(s for s, _ in tallies) / trials - exact) / math.sqrt(exact * (1 - exact) / trials)
    return None if abs(z) <= Z_LIMIT else f"estimate {z:+.1f} SE from {exact}"


def _check_classical(job: Job, out: str) -> str | None:
    rec = _record(job, out)
    if job.params["fmt"] == "json":
        count = rec["best_success_count"]
        witness = {k: "".join(map(str, v)) for k, v in rec["witness"].items()}
    else:
        count = int(rec["best_success_count"].split("/")[0])
        witness = {k[len("witness_"):]: v for k, v in rec.items() if k.startswith("witness_")}
    if count != 12:
        return f"best_success_count {count}, want 12"
    want = oracle.CLASSICAL_WITNESS[job.params["mode"]]
    return None if witness == want else f"witness {witness}, want {want}"


_CHECKS = {"exact": _check_exact, "optimal": _check_optimal, "sweep": _check_sweep,
           "simulate": _check_simulate, "classical-simultaneous": _check_classical,
           "classical-sequential": _check_classical}


def check_cli(job: Job, code: int, out: str, err: str) -> str | None:
    """None when the job behaved as it must, else why it failed."""
    if "Traceback" in err:
        return f"exit {code} with a traceback: {err.strip().splitlines()[-1]}"
    if job.kind.startswith("invalid"):
        if code != 2 or out:
            return f"exit {code} and {len(out)} bytes of stdout, want exit 2 and none"
        return None
    if code != 0:
        return f"exit {code}: {err.strip()[:200]}"
    try:
        return _CHECKS[job.kind](job, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparseable output: {exc!r}"


WORKLOADS = {
    "analytic": Workload("analytic", analytic_jobs, 75, False, 10),
    "sample": Workload("sample", sample_jobs, 75, False, 6),
    "search": Workload("search", search_jobs, 75, False, 6),
    "rounds": Workload("rounds", rounds_jobs, 95, True, 6),
}
