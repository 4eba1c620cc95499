"""The three seeded workloads: inputs, one op, and an independent check.

Each workload builds a fixed cycle of ops from its seed.  The runner
repeats whole cycles, so every op appears equally often in every run and
counts per op repeat exactly for a seed.  The program only ever sees the
generated inputs.  Checks run outside the timed region and never reuse
the route they check: family invariants come from the closed-form
polynomials computed here, Smith forms are verified by exact matrix
products and a Bareiss determinant written here, and CLI payloads are
compared with library results computed in this process.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from math import gcd
from operator import mul
from time import perf_counter

DEFAULT_DIGITS = sys.int_info.default_max_str_digits


class WrongAnswer(Exception):
    """An op finished but its output failed the check."""


class OpFailed(Exception):
    """An op raised or exited nonzero."""


@contextmanager
def unlimited_digits():
    """Lift the int<->str digit limit for the benchmark's own code only."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


# ----------------------------------------------------------------------
# independent arithmetic for the checks
# ----------------------------------------------------------------------

def bareiss_det(rows) -> int:
    """Exact determinant by fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        akk, ak = a[k][k], a[k]
        for i in range(k + 1, n):
            ai = a[i]
            aik = ai[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * akk - aik * ak[j]) // prev
        prev = akk
    return sign * a[n - 1][n - 1] if n else 1


def digest(*matrices) -> bytes:
    h = hashlib.blake2b(digest_size=20)
    for m in matrices:
        for row in m:
            for x in row:
                h.update(x.to_bytes(x.bit_length() // 8 + 1, "little",
                                    signed=True))
            h.update(b";")
        h.update(b"|")
    return h.digest()


def family_t(n: int) -> int:
    return abs((n - 1) * (n * n + 1))


def family_p(n: int) -> int:
    return (n - 1) ** 2 * (n * n + 1)


def family_q(n: int) -> int:
    return n ** 3 - 2 * n * n + n - 1


def check_family_reports(dk, lo, hi, reports, failures) -> None:
    """Closed-form check of one verify_family(lo, hi) result."""
    expect(failures == [], f"[{lo}, {hi}]: failures {failures[:1]}")
    ns = [n for n in range(lo, hi + 1) if n not in (0, 1)]
    expect([r.n for r in reports] == ns, f"[{lo}, {hi}]: wrong parameters")
    for r in reports:
        n = r.n
        p = family_p(n)
        expect(r.torsion == family_t(n), f"n={n}: torsion")
        expect(r.lens_order == p, f"n={n}: lens order")
        expect((r.schubert.p, r.schubert.q) == (p, family_q(n) % p),
               f"n={n}: schubert form")
        verdict = dk.INCONCLUSIVE if n == 2 else dk.CERTIFIED
        expect(r.null_homology == verdict, f"n={n}: verdict")


# ----------------------------------------------------------------------
# family_sweep
# ----------------------------------------------------------------------

class FamilySweep:
    """verify_family over windows of consecutive n at three magnitudes.

    Every op runs hundreds of SNFs on 5x6 and 6x6 presentations with
    huge entries: per-call overhead in matrices and surgery.  Windows
    avoid n in {0, 1}, so each op certifies exactly WIDTH + 1
    parameters; the first small window starts at n = 2 so the one
    INCONCLUSIVE member is in every cycle.  Near -10^50 about one n in
    six takes several times longer than its neighbours, so the 10^50
    class gets twice the windows of the others: the 90th percentile
    then lies inside the slow negative block and averages over many
    windows instead of following the few a seed happens to draw.
    """

    name = "family_sweep"
    WIDTH = 99
    WINDOWS = ((10 ** 3, 12), (10 ** 6, 12), (10 ** 50, 24))

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        w = self.WIDTH
        windows = []
        for base, count in self.WINDOWS:
            for k in range(count):
                if base == 10 ** 3:
                    lo = rng.randrange(2, base - w)
                    windows.append(2 if k == 0 else
                                   lo if k % 2 == 0 else -lo - w)
                else:
                    lo = base + rng.randrange(base // 10)
                    windows.append(lo if k % 2 == 0 else -lo - w)
        rng.shuffle(windows)
        self.ops = [(lo, lo + w) for lo in windows]

    def prepare(self, dk) -> None:
        pass

    def warm_up(self, dk) -> None:
        dk.verify_family(2, 2 + self.WIDTH)

    def run(self, dk, op):
        return dk.verify_family(*op)

    def check(self, dk, index, op, result) -> None:
        check_family_reports(dk, op[0], op[1], *result)


# ----------------------------------------------------------------------
# snf_dense
# ----------------------------------------------------------------------

class SnfDense:
    """Dense n x n matrices with entries in [-9, 9], n from 20 to 60.

    The coefficient-growth regime: at 60 x 60 the transform entries
    reach about 16,000 bits.  Sizes come in fixed classes weighted so
    that the median op falls inside the 36 class and the 90th
    percentile inside the 60 class, so a new seed redraws the entries
    without moving either percentile onto a class boundary.  Half of
    each class calls smith_normal_form (transforms used), half calls
    cokernel (group only); the seed decides which matrix gets which.
    n = 80 is left out: one op takes about 8 s.
    """

    name = "snf_dense"
    SIZES = ((20, 4), (28, 4), (36, 4), (44, 2), (52, 2), (60, 6))

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        self.ops = []
        self.dets = []
        for size, count in self.SIZES:
            kinds = ["smith", "cokernel"] * (count // 2)
            rng.shuffle(kinds)
            for kind in kinds:
                while True:
                    rows = [[rng.randint(-9, 9) for _ in range(size)]
                            for _ in range(size)]
                    # nonsingular inputs let det(M) prove |det U| = |det V| = 1
                    det = bareiss_det(rows)
                    if det:
                        break
                self.ops.append((kind, rows))
                self.dets.append(abs(det))
        order = list(range(len(self.ops)))
        rng.shuffle(order)
        self.ops = [self.ops[i] for i in order]
        self.dets = [self.dets[i] for i in order]
        self.gcds = [gcd(*(x for row in rows for x in row))
                     for _, rows in self.ops]
        self.verified: dict[int, bytes] = {}

    def prepare(self, dk) -> None:
        pass

    def warm_up(self, dk) -> None:
        rows = [[(3 * i + 5 * j) % 19 - 9 for j in range(12)] for i in range(12)]
        dk.smith_normal_form(dk.IntegerMatrix(rows))
        dk.cokernel(dk.IntegerMatrix(rows))

    def run(self, dk, op):
        kind, rows = op
        m = dk.IntegerMatrix(rows)
        if kind == "smith":
            return dk.smith_normal_form(m)
        return dk.cokernel(m)

    def _check_diagonal(self, diagonal, det, g, size):
        nonzero = [d for d in diagonal if d]
        expect(len(nonzero) == size and all(d > 0 for d in nonzero),
               "diagonal is not positive of full rank")
        for x, y in zip(nonzero, nonzero[1:]):
            expect(y % x == 0, f"divisibility chain broken at {x}, {y}")
        product = 1
        for d in nonzero:
            product *= d
        expect(product == det, "product of invariant factors != |det M|")
        expect(nonzero[0] == g, "d_1 != gcd of the entries")

    def check(self, dk, index, op, result) -> None:
        kind, rows = op
        size, det, g = len(rows), self.dets[index], self.gcds[index]
        if kind == "cokernel":
            factors = list(result.invariant_factors)
            expect(result.free_rank == 0, "nonsingular matrix has free part")
            expect(all(d >= 2 for d in factors), "invariant factor < 2")
            ones = size - len(factors)
            self._check_diagonal([1] * ones + factors, det, g, size)
            return
        u, d, v = (m.entries() for m in (result.u, result.d, result.v))
        key = digest(u, d, v)
        if self.verified.get(index) == key:
            return  # the same output for the same input was proven below
        expect(all(d[i][j] == 0 for i in range(size) for j in range(size)
                   if i != j), "D is not diagonal")
        self._check_diagonal([d[i][i] for i in range(size)], det, g, size)
        # U*M*V = D with det D = |det M| != 0 forces det U * det V = +-1,
        # hence |det U| = |det V| = 1: both transforms are unimodular.
        # Row by row, so the check holds one row of U*M at a time.
        m_cols, v_cols = list(zip(*rows)), list(zip(*v))
        for u_row, d_row in zip(u, d):
            um = [sum(map(mul, u_row, col)) for col in m_cols]
            expect([sum(map(mul, um, col)) for col in v_cols] == list(d_row),
                   "U * M * V != D")
        self.verified[index] = key


# ----------------------------------------------------------------------
# cli
# ----------------------------------------------------------------------

def _word(rng, length):
    """A Conway word with no proper suffix evaluating to 0 and a finite slope."""
    while True:
        entries = [rng.choice((-1, 1)) * rng.randint(1, 9)
                   for _ in range(length)]
        num, den = entries[-1], 1
        ok = True
        for a in reversed(entries[:-1]):
            if num == 0:
                ok = False
                break
            num, den = a * num + den, num
        if ok and num != 0:
            return [str(a) for a in entries]


def _unimodular(rng):
    """A small random element of GL(2, Z) as (a, b, c, d)."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(3):
        r = rng.choice((-3, -2, -1, 1, 2, 3))
        if rng.random() < 0.5:
            a, b = a + r * c, b + r * d
        else:
            c, d = c + r * a, d + r * b
    return a, b, c, d


def _conjugate(p, t):
    """p * t * p^-1 for 2x2 integer matrices given as (a, b, c, d)."""
    a, b, c, d = p
    det = a * d - b * c
    inv = (d * det, -b * det, -c * det, a * det)

    def m2(x, y):
        return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
                x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])

    return m2(m2(p, t), inv)


class Cli:
    """One subprocess of the dehnkit command per op.

    Measures what a shell user pays: interpreter start-up and import,
    argparse, str and JSON at the boundary, the two SNFs of `snf`, and
    the O(bound^2) fixed-slope search.  The mix carries the two known
    boundary defects: a matrix document with a 4,400-digit entry and a
    dense 60 x 60 whose U and V entries pass 4,300 digits.  Both exit 2
    today and count as failed ops.  Children always run under CPython's
    default int<->str limit.
    """

    name = "cli"
    WIDTH = 24
    FIXED_BOUND = 300
    WORD_LENGTH = 300

    def __init__(self, seed: int, root, workdir):
        rng = random.Random(f"{self.name}/{seed}")
        self.root = root
        self.workdir = workdir
        self.docs: dict[str, dict] = {}
        w = self.WIDTH
        small = rng.randrange(2, 1000 - w)
        ops = [
            ("family", [str(small), str(small + w)]),
            ("family", [str(-small - w), str(-small), "--json"]),
        ]
        for base, json_flag in ((10 ** 6, ["--json"]), (10 ** 50, [])):
            lo = base + rng.randrange(base // 10)
            ops.append(("family", [str(lo), str(lo + w)] + json_flag))
        for n in (rng.randrange(2, 1000), -(10 ** 6 + rng.randrange(10 ** 5)),
                  10 ** 50 + rng.randrange(10 ** 49)):
            ops.append(("surgery", ["--template", "mn", "-n", str(n),
                                    "--json"]))
        for label, size in (("small8", 8), ("small12", 12), ("large40", 40),
                            ("dense60", 60)):
            entries = [[str(rng.randint(-9, 9)) for _ in range(size)]
                       for _ in range(size)]
            self.docs[label] = {"rows": size, "cols": size, "entries": entries}
        huge = str(rng.randint(1, 9)) + "".join(
            str(rng.randint(0, 9)) for _ in range(4399))
        entries = [[str(rng.randint(-9, 9)) for _ in range(3)] for _ in range(3)]
        entries[rng.randrange(3)][rng.randrange(3)] = huge
        self.docs["longentry"] = {"rows": 3, "cols": 3, "entries": entries}
        for label in self.docs:
            ops.append(("snf", ["--input", str(workdir / f"{label}.json"),
                                "--json"]))
        for cmd in ("twobridge", "twobridge", "cfrac", "cfrac"):
            ops.append((cmd, [*_word(rng, self.WORD_LENGTH), "--json"]))
        for k in range(4):
            t = ((1, rng.choice((-2, -1, 1, 2)), 0, 1), (-1, 0, 0, 1))[k % 2]
            a, b, c, d = _conjugate(_unimodular(rng), t)
            ops.append(("slope_fixed", ["fixed", str(a), str(b), str(c),
                                        str(d), "--bound",
                                        str(self.FIXED_BOUND), "--json"]))
        rng.shuffle(ops)
        self.ops = [
            (group, (["slope"] if group == "slope_fixed" else [group]) + args)
            for group, args in ops
        ]
        self.expected: list = []
        self.env = dict(os.environ)
        self.env.pop("PYTHONINTMAXSTRDIGITS", None)
        self.env["PYTHONPATH"] = str(root / "src")

    # -- inputs and expected results -----------------------------------

    def prepare(self, dk) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for label, doc in self.docs.items():
            with open(self.workdir / f"{label}.json", "w") as fh:
                json.dump(doc, fh)
        self.expected = []
        for group, argv in self.ops:
            try:
                self.expected.append(self._expected(dk, group, argv))
            except Exception as exc:  # a broken library fails the op only
                self.expected.append(
                    WrongAnswer(f"no library result for {argv[:3]}: {exc}"))

    def _expected(self, dk, group, argv):
        """The library's answer for one argv, in the payload's shape."""
        if group == "family":
            lo, hi = int(argv[1]), int(argv[2])
            reports, failures = dk.verify_family(lo, hi)
            check_family_reports(dk, lo, hi, reports, failures)
            if "--json" in argv:
                return {"range": [lo, hi],
                        "reports": [r.as_dict() for r in reports],
                        "failures": failures, "ok": not failures}
            rows = [[str(r.n), str(r.schubert), str(r.components),
                     str(r.torsion), str(r.lens_order), r.chirality,
                     r.null_homology, "yes" if r.distance_one_swap else "no"]
                    for r in reports]
            return {"rows": rows, "count": len(reports)}
        if group == "surgery":
            link, fills = dk.mn_framed_link(int(argv[argv.index("-n") + 1]))
            group_ = dk.cokernel(dk.build_presentation(link, fills))
            return {
                "components": link.num_components,
                "fillings": {link.labels[i]: str(s)
                             for i, s in sorted(fills.items())},
                "homology": str(group_),
                "free_rank": group_.free_rank,
                "invariant_factors": [str(d) for d in group_.invariant_factors],
            }
        if group == "snf":
            label = os.path.basename(argv[argv.index("--input") + 1])[:-5]
            with unlimited_digits():
                m = dk.IntegerMatrix.from_doc(self.docs[label])
                snf = dk.smith_normal_form(m)
                payload = {
                    "diagonal": [str(d) for d in snf.diagonal],
                    "rank": snf.rank,
                    "cokernel": str(dk.cokernel(m)),
                    "u": snf.u.to_doc(),
                    "d": snf.d.to_doc(),
                    "v": snf.v.to_doc(),
                }
            # a digest keeps the 60 x 60 payload (tens of MB) out of memory
            return hashlib.blake2b(
                json.dumps(payload, sort_keys=True).encode()).digest()
        if group in ("twobridge", "cfrac"):
            word = dk.ConwayWord(tuple(int(x) for x in argv[1:-1]))
            s = dk.continued_fraction(word)
            if group == "cfrac":
                return {"word": list(word.entries), "slope": str(s)}
            form = dk.SchubertForm.from_slope(s)
            return {"fraction": str(s), "schubert": str(form), "p": form.p,
                    "q": form.q, "components": form.components}
        a, b, c, d = (int(x) for x in argv[2:6])
        inv = dk.SlopeInvolution(a, b, c, d)
        found = dk.fixed_slopes(inv, self.FIXED_BOUND)
        if not found:
            raise RuntimeError(f"generated matrix {argv[2:6]} fixes no slope")
        return {"bound": self.FIXED_BOUND, "is_involution": inv.is_involution(),
                "slopes": [str(s) for s in found]}

    def warm_up(self, dk) -> None:
        self._spawn(["cfrac", "3", "2", "--json"])

    # -- ops ------------------------------------------------------------

    def _spawn(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "dehnkit", *argv],
            cwd=self.root, env=self.env, capture_output=True, timeout=120,
        )
        if proc.returncode != 0:
            raise OpFailed(f"exit {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[:200]}")
        return proc.stdout.decode()

    def run(self, dk, op):
        return self._spawn(op[1])

    def run_in_process(self, dk, op) -> tuple[int, str, float]:
        """cli.main(argv) in this process with stdout and stderr captured."""
        sys.set_int_max_str_digits(DEFAULT_DIGITS)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            code = dk.cli.main(list(op[1]))
            elapsed = perf_counter() - start
        return code, out.getvalue(), elapsed

    def check(self, dk, index, op, stdout) -> None:
        group, argv = op
        expected = self.expected[index]
        if isinstance(expected, WrongAnswer):
            raise expected
        if group == "family" and "--json" not in argv:
            lines = stdout.splitlines()
            expect(lines[0].split() == ["n", "schubert", "comps", "t", "p",
                                        "chirality", "null-homology", "swap"],
                   "family table header")
            expect([line.split() for line in lines[1:-1]] == expected["rows"],
                   "family table rows")
            expect(lines[-1] == f"all checks passed ({expected['count']} "
                                "reports)", "family summary line")
            return
        with unlimited_digits():
            payload = json.loads(stdout)
            if group == "snf":
                payload = hashlib.blake2b(
                    json.dumps(payload, sort_keys=True).encode()).digest()
        expect(payload == expected, f"{group} payload differs from library")


def make(name: str, seed: int, root, workdir):
    if name == FamilySweep.name:
        return FamilySweep(seed)
    if name == SnfDense.name:
        return SnfDense(seed)
    if name == Cli.name:
        return Cli(seed, root, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = (FamilySweep.name, SnfDense.name, Cli.name)
