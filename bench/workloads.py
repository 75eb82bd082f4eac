"""The benchmark's three workloads, generated from a seed.

A job is one closed-loop call into tsalg's public API plus the answer
the theory behind it predicts. Expected outcomes never come from a run
of tsalg: they follow from the template (Boolean identities, operator
laws on permutable carriers, the sigma certificate and its unit-sequence
counterexample), and every ``fails`` witness is re-validated by the
independent evaluator in ``oracle.py``.

The seed draws the parameters inside each template (random Boolean
terms, permutations, coordinates, job order, per-job sampling seeds,
factor order). The multiset of (template, carrier, variable count, mode)
slots is fixed, so every seed gives a job list of the same shape and the
same total work.
"""

from __future__ import annotations

import importlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle

VARS = ("x", "y", "z")

#: Exhaustive jobs on the small carriers stay within this many assignments.
SMALL_JOB_ASSIGNMENTS = 1 << 12

#: Trials of every sampled check in sampled-wide.
WIDE_TRIALS = 100


class JobFailed(Exception):
    """A job's output disagrees with its expected answer."""


@dataclass
class Job:
    label: str
    call: Callable[[], object]
    #: What the theory predicts; read by ``validate``.
    expected: object
    #: Checks a result against ``expected`` outside the timed region and
    #: returns the assignments it tested (0 when it is not a check job).
    validate: Callable[["Job", object], int]
    #: Whether the job's time counts towards ``assignments_per_s``.
    counts_assignments: bool = True


@dataclass(frozen=True)
class Expect:
    outcome: str          # 'holds-exhaustive', 'holds-sampled' or 'fails'
    assignments: int      # assignments a holding verdict must report
    law: tuple
    members: tuple        # oracle view of the carrier, in rank order


# --- law templates --------------------------------------------------------
#
# Each builder takes (rng, n, nvars, unit) and returns (law, holds). The
# node count of a law depends only on the template and nvars, never on
# the seed.


def _var(name):
    return ("var", name)


def _bool_term(rng, names, leaves):
    """A random {&, |} term with the given leaf count using every name."""
    items = [_var(nm) for nm in names]
    items += [_var(rng.choice(names)) for _ in range(leaves - len(names))]
    rng.shuffle(items)
    while len(items) > 1:
        k = rng.randrange(len(items) - 1)
        items[k : k + 2] = [(rng.choice("&|"), items[k], items[k + 1])]
    return items[0]


def _dual(t):
    """De Morgan dual: swap & and |, complement every leaf."""
    if t[0] == "var":
        return ("~", t)
    return ("|" if t[0] == "&" else "&", _dual(t[1]), _dual(t[2]))


def _perm(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return tuple(images)


def _pair(rng, n):
    i, j = rng.sample(range(n), 2)
    return min(i, j), max(i, j)


def _demorgan(rng, n, v, unit):
    t = _bool_term(rng, VARS[:v], v + 1)
    return ((), (("~", t), _dual(t))), True


def _absorb(rng, n, v, unit):
    t = _bool_term(rng, VARS[:v], v + 1)
    return ((), (("|", t, ("&", t, _var(rng.choice(VARS[:v])))), t)), True


def _excluded(rng, n, v, unit):
    t = _bool_term(rng, VARS[:v], v + 1)
    return ((), (("|", t, ("~", t)), ("1",))), True


def _pres_and(rng, n, v, unit):
    f = _perm(rng, n)
    x, y = _var("x"), _var("y")
    return ((), (("s", f, ("&", x, y)), ("&", ("s", f, x), ("s", f, y)))), True


def _pres_or(rng, n, v, unit):
    f = _perm(rng, n)
    x, y = _var("x"), _var("y")
    return ((), (("s", f, ("|", x, y)), ("|", ("s", f, x), ("s", f, y)))), True


def _pres_not(rng, n, v, unit):
    f = _perm(rng, n)
    x = _var("x")
    return ((), (("s", f, ("~", x)), ("~", ("s", f, x)))), True


def _pres_zero(rng, n, v, unit):
    f = _perm(rng, n)
    x = _var("x")
    return ((), (("s", f, ("&", x, ("~", x))), ("0",))), True


def _pres_one(rng, n, v, unit):
    f = _perm(rng, n)
    x = _var("x")
    return ((), (("s", f, ("|", x, ("~", x))), ("1",))), True


def _involution(rng, n, v, unit):
    i, j = _pair(rng, n)
    x = _var("x")
    return ((), (("swap", i, j, ("swap", i, j, x)), x)), True


def _cycles(n):
    """The forward and backward n-cycles of the paper's counterexample."""
    return tuple((i + 1) % n for i in range(n)), tuple((i - 1) % n for i in range(n))


def _sigma_law(f, g):
    x = _var("x")
    return (((("|", ("s", f, x), ("s", g, x)), ("~", x)),), (("0",), ("1",)))


def _sigma(rng, n, v, unit):
    """sigma holds on every full carrier (constant sequences are fixed by
    every permutation) and fails on the unit sequences with the two
    n-cycles, the paper's counterexample."""
    if unit:
        f, g = _cycles(n)
        if rng.random() < 0.5:
            f, g = g, f
    else:
        f, g = _perm(rng, n), _perm(rng, n)
    return _sigma_law(f, g), not unit


def _false_swap(rng, n, v, unit):
    """s[i,j] x = x fails on any carrier holding a member whose
    coordinates i and j differ; full carriers over base >= 2 and unit
    carriers always do."""
    i, j = _pair(rng, n)
    x = _var("x")
    return ((), (("swap", i, j, x), x)), False


#: name -> (builder, variable counts it may use)
TEMPLATES = {
    "demorgan": (_demorgan, (1, 2, 3)),
    "absorb": (_absorb, (1, 2, 3)),
    "excluded": (_excluded, (1, 2, 3)),
    "pres-and": (_pres_and, (2,)),
    "pres-or": (_pres_or, (2,)),
    "pres-not": (_pres_not, (1,)),
    "pres-0": (_pres_zero, (1,)),
    "pres-1": (_pres_one, (1,)),
    "involution": (_involution, (1,)),
    "sigma": (_sigma, (1,)),
    "false-swap": (_false_swap, (1,)),
}


# --- carriers ---------------------------------------------------------------


@dataclass(frozen=True)
class CarrierSpec:
    name: str
    n: int
    u: int
    unit: bool = False

    @property
    def size(self) -> int:
        return self.n if self.unit else self.u**self.n

    def members(self) -> tuple:
        return oracle.unit_members(self.n) if self.unit else oracle.full_members(self.n, self.u)

    def build(self, tsalg):
        return tsalg.unit_carrier(self.n) if self.unit else tsalg.full_carrier(self.n, self.u)

    def alg_text(self) -> str:
        if self.unit:
            body = "[" + ", ".join(str(list(s)) for s in self.members()) + "]"
        else:
            body = "full"
        return f"n = {self.n}\nbase = {self.u}\ncarrier = {body}\n"


def _full(n, u):
    return CarrierSpec(f"F{n}{u}", n, u)


def _units(n):
    return CarrierSpec(f"U{n}", n, 2, unit=True)


SMALL_CARRIERS = (_full(2, 2), _full(3, 2), _full(2, 3), *(_units(n) for n in range(2, 7)))

#: (template, carrier, variables) on the 16-member carriers: one
#: 2^16-assignment check, and known-false laws that stop at their witness.
BIG_SLOTS = (
    ("sigma", _full(4, 2), 1),
    ("false-swap", _full(4, 2), 1),
    ("false-swap", _full(2, 4), 1),
)

#: (carrier, copies of each template). Jobs cost roughly in proportion to
#: |D|, so the counts put the median inside the (6,3) jobs and p90 inside
#: the (10,2) jobs rather than in a gap between carrier sizes.
WIDE_SLOTS = ((_full(5, 3), 4), (_full(4, 4), 4), (_full(6, 3), 8), (_full(10, 2), 6))
WIDE_TEMPLATES = ("pres-and", "pres-or", "pres-not", "involution", "sigma")


def _widest(template, c: CarrierSpec):
    """Most variables the template allows within SMALL_JOB_ASSIGNMENTS."""
    fits = [v for v in TEMPLATES[template][1] if (1 << c.size) ** v <= SMALL_JOB_ASSIGNMENTS]
    return max(fits) if fits else None


def exhaustive_slots():
    slots = []
    for c in SMALL_CARRIERS:
        for name in TEMPLATES:
            v = _widest(name, c)
            if v is None:
                continue
            copies = 2 if name in ("demorgan", "absorb", "excluded") else 1
            slots.extend([(name, c, v)] * copies)
    return slots + list(BIG_SLOTS)


# --- check jobs (exhaustive-small, sampled-wide) ---------------------------


def _expect(law, holds, c: CarrierSpec, nvars, trials) -> Expect:
    """The answer theory gives for checking `law` on c; only laws that hold
    are ever sampled."""
    if trials is None:
        return Expect("holds-exhaustive" if holds else "fails", (1 << c.size) ** nvars, law, c.members())
    return Expect("holds-sampled", trials, law, c.members())


def _check_answer(exp: Expect, outcome, tested, witness) -> int:
    """Compare a check's outcome and count with `exp`; `witness()` gives
    the witness as sets of member tuples when the check failed."""
    if outcome != exp.outcome:
        raise JobFailed(f"outcome {outcome}, expected {exp.outcome}")
    if exp.outcome == "fails":
        _validate_witness(exp, witness())
    elif tested != exp.assignments:
        raise JobFailed(f"tested {tested} assignments, expected {exp.assignments}")
    return tested


def _validate_verdict(job: Job, verdict) -> int:
    exp: Expect = job.expected
    return _check_answer(exp, verdict.outcome, verdict.assignments_tested, lambda: {
        nm: _bits_to_set(e.bits, exp.members) for nm, e in verdict.witness.items()})


def _bits_to_set(bits, members):
    if bits >> len(members):
        raise JobFailed("witness does not fit the carrier")
    return frozenset(s for p, s in enumerate(members) if bits >> p & 1)


def _validate_witness(exp: Expect, env: dict) -> None:
    if set(env) != oracle.law_vars(exp.law):
        raise JobFailed(f"witness assigns {sorted(env)}, law has {sorted(oracle.law_vars(exp.law))}")
    if not all(x <= set(exp.members) for x in env.values()):
        raise JobFailed("witness leaves the carrier")
    if not oracle.violates(exp.law, exp.members, env):
        raise JobFailed("witness does not re-validate")


def _check_job(tsalg, rng, template, c: CarrierSpec, D, nvars, trials=None):
    law, holds = TEMPLATES[template][0](rng, c.n, nvars, c.unit)
    text = oracle.law_text(law)
    if law[0]:
        parsed, check = tsalg.parse_quasi(text), "check_quasi"
    else:
        parsed, check = tsalg.parse_equation(text), "check_equation"
    # warm the carrier's mask cache so only the first set-up pays for compiles
    for images in oracle.law_perms(law, c.n):
        tsalg.subst(D, tsalg.perm_from_images(images), tsalg.Elem(D, 0))
    mode = tsalg.Exhaustive() if trials is None else tsalg.Random(trials, rng.randrange(1 << 31))
    label = f"{template} {c.name} v{nvars}" + ("" if trials is None else f" random({trials})")
    return Job(
        label,
        # looked up at call time, so the tracer's wrappers see the call
        lambda: getattr(tsalg, check)(D, parsed, mode),
        _expect(law, holds, c, nvars, trials),
        _validate_verdict,
    )


def exhaustive_small(tsalg, rng, workdir: Path) -> list[Job]:
    """Exhaustive checks on small permutable carriers: per-assignment tree
    walking dominates (termlang.eval_term, Perm checks, Elem construction)."""
    carriers = {}
    jobs = []
    for template, c, nvars in exhaustive_slots():
        if c not in carriers:
            carriers[c] = c.build(tsalg)
        jobs.append(_check_job(tsalg, rng, template, c, carriers[c], nvars))
    rng.shuffle(jobs)
    return jobs


def sampled_wide(tsalg, rng, workdir: Path) -> list[Job]:
    """Sampled checks of laws that hold on wide full carriers: mask
    application in algebra.subst dominates. Only holding laws are used, so
    assignments tested always equal the trial count."""
    jobs = []
    for c, copies in WIDE_SLOTS:
        D = c.build(tsalg)
        for template in WIDE_TEMPLATES:
            for _ in range(copies):
                jobs.append(_check_job(tsalg, rng, template, c, D, TEMPLATES[template][1][0], WIDE_TRIALS))
    rng.shuffle(jobs)
    return jobs


# --- verifiers-cli ------------------------------------------------------------

#: (dimension, target base, other factor bases) of each ultraproduct job.
ULTRA_SLOTS = ((2, 3, (2, 2)), (2, 3, (3,)), (3, 2, (2,)), (3, 2, (3, 2)), (2, 2, (3, 3)), (2, 2, (2,)))

#: (carrier, template, sampled trials or None) of each `check` job. Most
#: cost about 2^12 assignments, so p90 falls inside them rather than in a
#: gap between job sizes; two known-false laws exercise exit code 1.
CHECK_SLOTS = (
    *((c, t, None) for c in (_full(2, 2), _units(4), _units(6)) for t in ("demorgan", "absorb", "excluded")),
    (_units(6), "pres-and", None),
    (_units(6), "pres-or", None),
    (_full(3, 2), "pres-not", 2000),
    (_full(2, 3), "pres-1", 2000),
    (_units(5), "sigma", None),
    (_full(3, 2), "false-swap", None),
)

#: (dimension, base, member count) of each `closure` job.
CLOSURE_SLOTS = tuple((n, u, k) for n, u in ((2, 2), (2, 3), (3, 2), (3, 3)) for k in (1, 2, 3, 4))


def _cli_call(cli, argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    return call


def _cli_validator(extra):
    """Check exit code and "passed", then the job-specific ``extra`` on the
    JSON report; ``extra`` returns the assignments the report counts."""

    def validate(job: Job, result) -> int:
        code, out, err = result
        exp_code, exp_passed = job.expected
        if code != exp_code:
            raise JobFailed(f"exit code {code}, expected {exp_code}: {err.strip()[:200]}")
        report = json.loads(out)
        if report["passed"] is not exp_passed:
            raise JobFailed(f"passed is {report['passed']}, expected {exp_passed}")
        return extra(report)

    return validate


def _expect_counts(**want):
    def extra(report):
        for key, value in want.items():
            if report["counts"][key] != value:
                raise JobFailed(f"counts.{key} is {report['counts'][key]}, expected {value}")
        return 0

    return extra


def _witness_env(report):
    return {nm: frozenset(tuple(s) for s in seqs) for nm, seqs in report["witness"].items()}


#: Trials of tsalg's sampled verifiers when no mode is given
#: (``theorems.DEFAULT_TRIALS`` when this benchmark was written).
AUTO_TRIALS = 2000


def _escape_want(n, seed):
    """What sigma-demo's escape step must report for ^n n. It runs its
    verifiers in auto mode. Over ^2 2 the element space has 16 members,
    so relativization checks all 16 * 17 / 2 pairs and sigma all 16
    assignments. From n = 3 the space has 2^27 or more members, so both
    sample AUTO_TRIALS with the job's seed. A change of mode policy or of
    trial count changes this step's work, and fails the job."""
    if n == 2:
        space = 1 << n**n
        hom = {"mode": "exhaustive", "seed": None, "elements_tested": space,
               "pairs_tested": space * (space + 1) // 2}
        big = {"brute_mode": "exhaustive", "brute_seed": None, "assignments_tested": space}
    else:
        hom = {"mode": f"random({AUTO_TRIALS})", "seed": seed, "elements_tested": AUTO_TRIALS,
               "pairs_tested": AUTO_TRIALS}
        big = {"brute_mode": f"random({AUTO_TRIALS})", "brute_seed": seed,
               "assignments_tested": AUTO_TRIALS}
    return hom, dict(big, brute_holds=True, holds=True)


def _sigma_demo_extra(n, seed):
    exp = Expect("fails", 0, _sigma_law(*_cycles(n)), _units(n).members())
    hom_want, big_want = _escape_want(n, seed)

    def extra(report):
        _validate_witness(exp, _witness_env(report))
        want = (1 << (1 << n))  # one cycle pair over the full algebra on ^n 2
        if report["counts"]["sigma_small_assignments"] != want:
            raise JobFailed(f"sigma_small_assignments is {report['counts']['sigma_small_assignments']}, expected {want}")
        escape = report["details"]["escape"]
        for part, wanted in (("hom", hom_want), ("sigma_big", big_want)):
            for key, value in wanted.items():
                if escape[part][key] != value:
                    raise JobFailed(f"escape.{part}.{key} is {escape[part][key]!r}, expected {value!r}")
        if not (escape["surjective"] and escape["passed"]):
            raise JobFailed("escape route not reproduced")
        if escape["sigma_sub"]["outcome"] != "fails":
            raise JobFailed(f"escape.sigma_sub is {escape['sigma_sub']['outcome']}, expected fails")
        # sigma fails on the unit sequences re-based into ^n n: the same
        # members, so the same oracle check applies
        _validate_witness(exp, {nm: frozenset(tuple(s) for s in seqs)
                                for nm, seqs in escape["sigma_sub"]["witness"].items()})
        return 0

    return extra


def _check_extra(exp: Expect):
    def extra(report):
        return _check_answer(exp, report["outcome"], report["counts"]["assignments_tested"],
                             lambda: _witness_env(report))

    return extra


def _closure_extra(want: frozenset):
    def extra(report):
        got = frozenset(tuple(s) for s in report["details"]["closure"]["members"])
        if got != want:
            raise JobFailed(f"closure has {len(got)} members, expected {len(want)}")
        return 0

    return extra


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text)
    return str(path)


def verifiers_cli(tsalg, rng, workdir: Path) -> list[Job]:
    """In-process `tsalg` subcommands with --json: theorem verifiers,
    relativization, cold carriers and mask compiles, and report code."""
    cli = importlib.import_module("tsalg.cli")
    jobs = []

    def add(label, argv, expected, extra, counts_assignments=False):
        jobs.append(Job(label, _cli_call(cli, argv + ["--json"]), expected,
                        _cli_validator(extra), counts_assignments))

    big = _write(workdir, "full23.alg", _full(2, 3).alg_text())
    for k, sub in enumerate(oracle.permutable_subsets(2, 3)):
        body = "[" + ", ".join(str(list(s)) for s in sorted(sub)) + "]"
        path = _write(workdir, f"sub{k:02d}.alg", f"n = 2\nbase = 3\ncarrier = {body}\n")
        add(f"verify-relativization sub{k:02d}",
            ["verify-relativization", "--big", big, "--sub", path, "--exhaustive"], (0, True),
            _expect_counts(elements_tested=512, pairs_tested=512 * 513 // 2))

    for n, k in ((2, 2), (2, 3), (3, 2)):
        space = 1 << k**n
        add(f"decompose {n} {k}", ["decompose", "--n", str(n), "--k", str(k), "--exhaustive"], (0, True),
            _expect_counts(atoms=k**n, elements=space, pairs_tested=space * (space - 1) // 2))

    # --n 4 is left out: it took a third of each round (about 1.5 s, mostly
    # mask application on ^4 4, which sampled-wide measures), and every
    # other job got that many fewer samples per run.
    for n in (2, 3):
        seed = rng.randrange(1 << 31)
        add(f"sigma-demo {n}", ["sigma-demo", "--n", str(n), "--exhaustive", "--seed", str(seed)],
            (0, True), _sigma_demo_extra(n, seed))

    for n, target_u, others in ULTRA_SLOTS:
        bases = list(others)
        rng.shuffle(bases)
        index = rng.randrange(len(bases) + 1)
        bases.insert(index, target_u)
        argv = ["ultraproduct"]
        for u in bases:
            argv += ["--spec", _write(workdir, f"full{n}{u}.alg", _full(n, u).alg_text())]
        argv += ["--index", str(index), "--seed", str(rng.randrange(1 << 31))]
        add(f"ultraproduct {n} {bases} @{index}", argv, (0, True),
            _expect_counts(classes_tested=1 << target_u**n))

    for slot, (n, u, k) in enumerate(CLOSURE_SLOTS):
        seqs = rng.sample(oracle.full_members(n, u), k)
        body = "[" + ", ".join(str(list(s)) for s in seqs) + "]"
        path = _write(workdir, f"closure{slot:02d}.alg", f"n = {n}\nbase = {u}\ncarrier = {body}\n")
        add(f"closure {n} {u} k{k}", ["closure", "--spec", path], (0, True),
            _closure_extra(oracle.closure(seqs)))

    for c, template, trials in CHECK_SLOTS:
        v = _widest(template, c)
        law, holds = TEMPLATES[template][0](rng, c.n, v, c.unit)
        text = oracle.law_text(law)
        spec = _write(workdir, f"{c.name}.alg", c.alg_text())
        argv = ["check", "--spec", spec, "--quasi" if law[0] else "--eq", text]
        if trials is None:
            argv.append("--exhaustive")
        else:
            argv += ["--random", str(trials), "--seed", str(rng.randrange(1 << 31))]
        add(f"check {template} {c.name} v{v}", argv, (0 if holds else 1, holds),
            _check_extra(_expect(law, holds, c, v, trials)), counts_assignments=True)

    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "exhaustive-small": exhaustive_small,
    "sampled-wide": sampled_wide,
    "verifiers-cli": verifiers_cli,
}
