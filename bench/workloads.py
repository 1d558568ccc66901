"""The three benchmark workloads: seeded inputs and the timed liepq calls.

`make_inputs` is plain data built from the seed; it runs during set-up.
`RUNNERS[workload]` executes one round against the imported `liepq`
package and records in a `Round`, per verdict, the seconds spent in liepq
and the problems the reference checks found.  Every liepq name is looked up on its
module at call time, so the traced run sees the wrapped functions.

While a round runs, a timer (SIGALRM every PROBE_EVERY_S of wall time)
interrupts it to time a fixed speed probe (`probe_once`) that never touches
liepq, also in the middle of a long liepq call.  The machine's speed drifts by
up to a factor of two over minutes (other tenants share its cores), and the
probe slows with it.  Probe time is left out of every timing, and
`Round.wall_ref_s` rescales each stretch of liepq time between two probes by
REF_PROBE_S over the median of the probes nearest to it.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import random
import signal
import statistics
import time
import traceback
from fractions import Fraction

import reference as ref

# Every c list has, per sign, one square integer, one other integer and one
# proper fraction, all of height at most 4: seeds change the values but not
# the cost profile, nor how many |c| are rational squares.
C_KINDS = [
    [Fraction(1), Fraction(4)],
    [Fraction(2), Fraction(3)],
    [Fraction(x) for x in ("1/2", "1/3", "2/3", "3/2", "4/3", "3/4")],
]
MU_POOL = [Fraction(x) for x in ("3/2", "2", "3", "1/2", "2/3", "4/3", "3/4", "5/2")]
HOM_SIGNATURES = [(2, 1), (4, 1), (3, 2), (5, 1), (4, 2), (3, 3), (4, 4), (3, 1), (2, 2)]
VERIFY_SIGNATURES = [(2, 1), (3, 1), (4, 4)]
BRACKET_SAMPLE = 32
GENERATOR_SAMPLE = 3
PROBE_EVERY_S = 0.1  # one probe per this much wall time
PROBE_WINDOW = 3  # probes taken on each side of a timed stretch
REF_PROBE_S = 0.0015  # the reference speed: one probe in 1.5 ms


def probe_once():
    """A fixed pure-Python Fraction computation, about the mix liepq's
    exact arithmetic runs; it never touches liepq, so no change to liepq
    can move its time, only the machine's speed can."""
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)
    return total


def time_probe():
    start = time.perf_counter()
    probe_once()
    return start, time.perf_counter() - start


def ref_seconds(segments, probes):
    """Seconds at the reference speed: each (start, seconds) segment times
    REF_PROBE_S over the median of the probes nearest to it in time."""
    starts = [start for start, _ in probes]
    total = 0.0
    for start, seconds in segments:
        i = bisect.bisect_left(starts, start)
        window = probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW]
        total += seconds * REF_PROBE_S / statistics.median(t for _, t in window)
    return total


def signatures(n_min, n_max):
    return [(p, n - p) for n in range(n_min, n_max + 1) for p in range(1, n)]


def c_list(rng):
    """0 plus three positive and three negative values of small height."""
    return sorted(
        [Fraction(0)] + [sign * rng.choice(kind) for sign in (1, -1) for kind in C_KINDS]
    )


def make_inputs(workload, seed):
    """Seeded inputs, in a seeded order: the machine's speed drifts during a
    run, and shuffling spreads every kind of verdict over the whole run
    instead of timing it in one window.  verify-cli keeps the order
    (2,1), (3,1), (4,4): each is one `liepq verify` call."""
    rng = random.Random(seed)
    cs = c_list(rng)
    if workload == "deform-grid":
        tasks = [(p, q, c) for p, q in signatures(3, 8) for c in cs]
    elif workload == "module-certs":
        tasks = (
            [("hom", p, q) for p, q in HOM_SIGNATURES]
            + [("hom-dense", 2, 2), ("half-spin", 4, 4)]
            + [("form", p, q) for p, q in signatures(3, 8)]
            + [("complement", p, q, c) for p, q in signatures(3, 6) for c in cs if c]
        )
    elif workload == "verify-cli":
        tasks = list(VERIFY_SIGNATURES)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if workload != "verify-cli":
        rng.shuffle(tasks)
        return {"tasks": tasks}
    mus = rng.sample(MU_POOL, 3)
    return {
        "tasks": tasks,
        "c_list": [str(c) for c in cs],
        "mu_list": [str(mu) for mu in mus],
    }


class Round:
    """Verdict records of one round: (label, seconds, problems)."""

    def __init__(self, seed):
        self.seed = seed
        self.wall_s = 0.0  # liepq time, probes left out
        self.verdicts = []
        self.segments = []  # (start, seconds): stretches of liepq time between probes
        self.probes = []  # (start, seconds)
        self.probe_spent = 0.0
        self._open = None  # start of the timed stretch in progress
        self._busy = False  # bookkeeping or a probe in progress: the timer skips
        for _ in range(2 * PROBE_WINDOW):
            self._probe()

    def rng(self, *key):
        return random.Random(":".join(map(str, (self.seed,) + key)))

    def clock(self):
        """Wall time less the time spent in probes."""
        return time.perf_counter() - self.probe_spent

    def _probe(self, *_signal):
        if self._busy:
            return
        self._busy = True
        now = time.perf_counter()
        if self._open is not None:
            self.segments.append((self._open, now - self._open))
        self.probes.append(time_probe())
        end = time.perf_counter()
        self.probe_spent += end - now
        if self._open is not None:
            self._open = end
        self._busy = False

    @contextlib.contextmanager
    def probing(self):
        """Time the speed probe every PROBE_EVERY_S while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @contextlib.contextmanager
    def timed(self):
        """Count the block as liepq time."""
        self._busy = True
        begin, self._open = self.clock(), time.perf_counter()
        self._busy = False
        try:
            yield
        finally:
            self._busy = True
            end = time.perf_counter()
            self.segments.append((self._open, end - self._open))
            self._open = None
            self.wall_s += self.clock() - begin
            self._busy = False

    def wall_ref_s(self):
        for _ in range(PROBE_WINDOW):
            self._probe()
        return ref_seconds(self.segments, self.probes)

    def certify(self, label, call, check):
        """Time call() as one verdict, then check its result untimed."""
        begin = self.clock()
        try:
            with self.timed():
                result = call()
        except Exception:
            seconds = self.clock() - begin
            self.verdicts.append((label, seconds, [traceback.format_exc(limit=3)]))
            return
        seconds = self.clock() - begin
        self.verdicts.append((label, seconds, check(result)))


# -- deform-grid ----------------------------------------------------------


def _deform(lq, p, q, c):
    dalg = lq.so_pq.deformed_algebra(p, q, c)
    alg = dalg.algebra
    out = {"dalg": dalg, "semisimple": alg.is_semisimple()}
    if not c:
        return out
    n, d = p + q, dalg.dim
    emb = lq.so_pq.embedding_iso(p, q, c)
    form, images = emb.target_form, emb.images
    certified = all((im.transpose() @ form + form @ im).is_zero() for im in images)
    zero = lq.exact_linalg.Matrix.zeros(n + 1, n + 1)
    for i in range(d):
        for j in range(i + 1, d):
            lhs = images[i] @ images[j] - images[j] @ images[i]
            rhs = zero
            for k, v in alg.structure_entry(i, j).items():
                rhs = rhs + images[k].scale(v)
            certified = certified and lhs == rhs
    span = lq.exact_linalg.Subspace.from_vectors(
        (n + 1) * (n + 1), [list(im.entries) for im in images]
    )
    out.update(
        emb=emb,
        certified=certified,
        injective=span.dim == d,
        inertia=lq.exact_linalg.inertia_of_diagonalizable_form(form),
        killing=alg.killing_form().gram,
    )
    return out


def _check_deform(rnd, p, q, c, out):
    dalg = out["dalg"]
    result = {"dim": dalg.dim, "semisimple": out["semisimple"]}
    if c:
        d = dalg.dim
        all_pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
        sample = rnd.rng(p, q, c).sample(all_pairs, min(BRACKET_SAMPLE, len(all_pairs)))
        result.update(
            structure={
                key: {k: ref.frac(v) for k, v in entry.items()}
                for key, entry in dalg.algebra.structure.items()
            },
            images=[ref.rows_of(im) for im in out["emb"].images],
            certified=out["certified"],
            injective=out["injective"],
            inertia=out["inertia"],
            killing=ref.rows_of(out["killing"]),
        )
    else:
        sample = []
    return ref.check_deform(p, q, c, result, sample)


def run_deform_grid(lq, inputs, rnd):
    for p, q, c in inputs["tasks"]:
        rnd.certify(
            f"deform {p},{q},{c}",
            lambda: _deform(lq, p, q, c),
            lambda out: _check_deform(rnd, p, q, c, out),
        )


# -- module-certs ---------------------------------------------------------


def _hom(lq, p, q):
    std = lq.so_pq.standard_rep(p, q)
    adjoint = lq.rep_theory.adjoint_rep(lq.so_pq.so_pq_algebra(p, q))
    return lq.rep_theory.hom_space(lq.rep_theory.wedge_square_rep(std), adjoint)


def _gen_sample(rnd, p, q):
    m = (p + q) * (p + q - 1) // 2
    return rnd.rng("gens", p, q).sample(range(m), GENERATOR_SAMPLE)


def _dense_cross_check(lq):
    std = lq.so_pq.standard_rep(2, 2)
    wedge = lq.rep_theory.wedge_square_rep(std)
    adjoint = lq.rep_theory.adjoint_rep(lq.so_pq.so_pq_algebra(2, 2))
    return lq.rep_theory.hom_space_dense(wedge, adjoint), lq.rep_theory.hom_space(wedge, adjoint)


def _check_dense(rnd, out):
    dense, fast = ([ref.rows_of(h) for h in maps] for maps in out)
    problems = ref.check_hom(2, 2, dense, _gen_sample(rnd, 2, 2))
    if dense != fast:
        problems.append("dense Hom basis differs from the eigensplit one")
    return problems


def _half_spin(lq):
    hs = lq.so_pq.half_spin_reps(4, 4)
    rt = lq.rep_theory
    return [
        (half, rt.is_irreducible(half).status, rt.invariant_symmetric_forms(half),
         rt.invariant_skew_forms(half))
        for half in (hs.c_plus, hs.c_minus)
    ]


def _check_half_spin(out):
    return ref.check_half_spin(
        [
            {"status": status, "sym": [ref.rows_of(f) for f in sym], "skew": len(skew),
             "actions": [ref.rows_of(a) for a in half.actions]}
            for half, status, sym, skew in out
        ]
    )


def _complement(lq, p, q, c):
    """The criterion-8 pipeline: trace-form complement of the embedded
    so(p,q) in so(R^{n+1}, I_{p,q}(c)), restricted and decided."""
    n = p + q
    m = n * (n - 1) // 2
    emb = lq.so_pq.embedding_iso(p, q, c)
    target = lq.so_pq.so_of_form(emb.target_form)
    coord = target.coordinatizer()
    embedded = [coord.express(im) for im in emb.images[:m]]
    sub = lq.exact_linalg.Subspace.from_vectors(target.dim, embedded)
    complement = lq.lie_core.orthogonal_complement(target.trace_form(), sub)
    h_alg = lq.lie_core.LieAlgebra.from_matrices(emb.images[:m], validate=False)
    actions = [target.ad_matrix(v) for v in embedded]
    module = lq.rep_theory.restrict(
        lq.rep_theory.Representation(h_alg, target.dim, actions), complement
    )
    return complement.dim, lq.rep_theory.is_irreducible(module).status


def run_module_certs(lq, inputs, rnd):
    for kind, p, q, *c in inputs["tasks"]:
        label = " ".join([kind, f"{p},{q}"] + [str(x) for x in c])
        if kind == "hom":
            rnd.certify(
                label,
                lambda: _hom(lq, p, q),
                lambda maps: ref.check_hom(p, q, [ref.rows_of(h) for h in maps], _gen_sample(rnd, p, q)),
            )
        elif kind == "hom-dense":
            rnd.certify(label, lambda: _dense_cross_check(lq), lambda out: _check_dense(rnd, out))
        elif kind == "half-spin":
            rnd.certify(label, lambda: _half_spin(lq), _check_half_spin)
        elif kind == "form":
            rnd.certify(
                label,
                lambda: lq.rep_theory.invariant_symmetric_forms(lq.so_pq.standard_rep(p, q)),
                lambda forms: ref.check_standard_forms(p, q, [ref.rows_of(f) for f in forms]),
            )
        else:
            rnd.certify(
                label,
                lambda: _complement(lq, p, q, c[0]),
                lambda out: ref.check_complement(p + q, *out),
            )


# -- verify-cli -----------------------------------------------------------


def run_verify_cli(lq, inputs, rnd):
    """`liepq verify --suite all` through liepq.cli.main, one verdict per
    check; each check call is timed here, around liepq.cli.run_check."""
    cli = lq.cli
    c_text, mu_text = ",".join(inputs["c_list"]), ",".join(inputs["mu_list"])
    for p, q in inputs["tasks"]:
        expected = ref.expected_verify(p, q, inputs["c_list"], inputs["mu_list"])
        timed = {}
        inner = cli.run_check

        def run_check(name, params):
            begin = rnd.clock()
            try:
                return inner(name, params)
            finally:
                timed[ref.params_key(name, params)] = rnd.clock() - begin

        argv = ["verify", "--suite", "all", "--p", str(p), "--q", str(q),
                "--c-list", c_text, "--mu-list", mu_text]
        stdout = io.StringIO()
        cli.run_check = run_check
        try:
            with rnd.timed(), contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
            entries = {ref.params_key(e["name"], e["params"]): e
                       for e in json.loads(stdout.getvalue())["checks"]}
            failure = None if code == 0 else f"exit code {code}"
        except Exception:
            entries, failure = {}, traceback.format_exc(limit=3)
        finally:
            cli.run_check = inner
        for key in sorted(set(expected) | set(entries)):
            if key not in expected:
                problems = ["check not expected at these parameters"]
            elif key not in entries:
                problems = [failure or "check missing from the report"]
            else:
                problems = ref.check_verify_entry(expected[key], entries[key])
                if failure:
                    problems.append(failure)
            rnd.verdicts.append((f"verify {p},{q} {key}", timed.get(key, 0.0), problems))


RUNNERS = {
    "deform-grid": run_deform_grid,
    "module-certs": run_module_certs,
    "verify-cli": run_verify_cli,
}
