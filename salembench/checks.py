"""Output checks for the salem benchmark.

Nothing here imports salemcensus: every expectation comes from a closed
form or an integer predicate written out below.

- `census deg2` prints Q - 2.
- `census deg4` emits 2(Q-1)^2 rows, and the deg4 fit series equals that
  closed form at every grid point.
- Census rows pass the Salem predicate for x^4 + a x^3 + b x^2 + a x + 1
  (b+2a+2 < 0, b-2a+2 > 0, a^2-4b+8 not a square) and the cut p(Q) >= 0;
  square-rootable rows also have p(-1) = k^2.
- Bianchi rows satisfy (a_lift, b_lift) = (2B-A^2, B^2-2A^2+2) and the same
  predicate and cut.
- Cocompact rows satisfy b = k^2 + 2a - 2 in o_L and, on a sample, the
  exact inequality system over L = Q(sqrt(d)).

Each check returns (errors, rows); an empty error list means the output
passed.  `rows` counts data rows, for the cli.rows metric.
"""

from __future__ import annotations

import json
import math
import random

# Rows per output whose per-row predicates are checked.
SAMPLE = 2000

CENSUS_HEADER = "a,b,k,lambda,source"
BIANCHI_HEADER = "A,B,a_lift,b_lift,k,lambda,num_witness_traces"
SYSTEM_HEADER = "a_u,a_v,k_u,k_v,b_u,b_v,branch,verified"
FIT_EXPONENT = {"deg4": 2.0, "sr": 1.5, "system": 1.5}
FIT_RESIDUAL_THRESHOLD = 0.05


# --- integer predicates -------------------------------------------------------


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def is_salem(a: int, b: int) -> bool:
    return b + 2 * a + 2 < 0 and b - 2 * a + 2 > 0 and not is_square(a * a - 4 * b + 8)


def p_at(a: int, b: int, x: int) -> int:
    return x**4 + a * x**3 + b * x * x + a * x + 1


def deg4_count(Q: int) -> int:
    return 2 * (Q - 1) ** 2


def sr_count(Q: int) -> int:
    """Square-rootable census size by direct scan of (a, k), b = k^2 + 2a - 2."""
    total = 0
    Q2, Q3, Q4 = Q * Q, Q**3, Q**4
    for na in range(1, Q + 3):
        # p(Q) >= 0 is b >= b_min, i.e. k^2 >= b_min + 2 na + 2
        b_min = -((Q4 - na * Q3 - na * Q + 1) // Q2)
        need = b_min + 2 * na + 2
        k_lo = 1 if need <= 1 else math.isqrt(need - 1) + 1
        c = (na + 4) ** 2
        for k in range(k_lo, math.isqrt(4 * na - 1) + 1):
            if not is_square(c - 4 * k * k):
                total += 1
    return total


def _census_row(a: int, b: int, k: int | None, lam: float, Q: int, sr: bool) -> str | None:
    if not is_salem(a, b):
        return f"({a}, {b}) fails the Salem predicate"
    if p_at(a, b, Q) < 0:
        return f"({a}, {b}) lies above the cut lambda <= {Q}"
    pm1 = p_at(a, b, -1)
    if k is None:
        if sr or is_square(pm1):
            return f"({a}, {b}) lacks k although p(-1) = {pm1}"
    elif k <= 0 or k * k != pm1:
        return f"({a}, {b}) has k = {k} but p(-1) = {pm1}"
    if not 1.0 < lam <= Q * (1 + 1e-9):
        return f"({a}, {b}) has lambda = {lam!r} outside (1, {Q}]"
    return None


def _sample(n: int, rng: random.Random) -> list[int]:
    return sorted(rng.sample(range(n), min(n, SAMPLE)))


def _lines(data: bytes) -> list[str]:
    lines = data.decode("utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


# --- per-kind checks ----------------------------------------------------------


def check_sr_csv(data: bytes, Q: int, rng: random.Random,
                 expected_rows: int | None = None) -> tuple[list[str], int]:
    lines = _lines(data)
    if not lines or lines[0] != CENSUS_HEADER:
        return ["census csv header missing"], 0
    rows = lines[1:]
    errors = []
    if expected_rows is not None and len(rows) != expected_rows:
        errors.append(f"census sr Q={Q}: {len(rows)} rows, expected {expected_rows}")
    for i in _sample(len(rows), rng):
        a, b, k, lam, source = rows[i].split(",")
        err = _census_row(int(a), int(b), int(k) if k else None, float(lam), Q, sr=True)
        if err or source != "direct":
            errors.append(err or f"row {i} has source {source!r}")
    return errors, len(rows)


def check_deg4_json(data: bytes, Q: int, rng: random.Random) -> tuple[list[str], int]:
    objs = json.loads(data)
    errors = []
    if len(objs) != deg4_count(Q):
        errors.append(f"census deg4 Q={Q}: {len(objs)} rows, expected {deg4_count(Q)}")
    for i in _sample(len(objs), rng):
        o = objs[i]
        k = None if o["k"] is None else int(o["k"])
        err = _census_row(int(o["a"]), int(o["b"]), k, o["lambda"], Q, sr=False)
        if err or o["source"] != "direct":
            errors.append(err or f"row {i} has source {o['source']!r}")
    return errors, len(objs)


def check_deg2(data: bytes, Q: int) -> tuple[list[str], int]:
    got = data.decode("utf-8").strip()
    if got != str(Q - 2):
        return [f"census deg2 Q={Q} printed {got!r}, expected {Q - 2}"], 1
    return [], 1


def power_fit(points: list[tuple[float, float]]) -> tuple[float, float, float, int]:
    """Log-log least squares, dropping the smallest Q while the RMS residual
    exceeds the threshold and more than three points remain."""
    pts = sorted(points)
    while True:
        xs = [math.log(q) for q, _ in pts]
        ys = [math.log(c) for _, c in pts]
        n = len(pts)
        mx, my = sum(xs) / n, sum(ys) / n
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
        icpt = my - slope * mx
        rms = math.sqrt(sum((y - icpt - slope * x) ** 2 for x, y in zip(xs, ys)) / n)
        if rms <= FIT_RESIDUAL_THRESHOLD or n <= 3:
            return math.exp(icpt), slope, rms, n
        pts.pop(0)


def _close(x: float, y: float, rel: float = 1e-9, abs_: float = 1e-9) -> bool:
    return abs(x - y) <= max(rel * max(abs(x), abs(y)), abs_)


def check_fit(data: bytes, series: str, qgrid: list[int]) -> tuple[list[str], int]:
    lines = data.decode("utf-8").splitlines()
    try:
        head = dict(tok.split("=", 1) for tok in lines[0].split())
        const, expo = float(head["constant"]), float(head["exponent"])
        resid, used = float(head["residual"]), int(head["points_used"])
        if lines[1] != "Q,normalized_count":
            raise ValueError("plot header")
        plot = [(int(q), float(v)) for q, v in (line.split(",") for line in lines[2:])]
    except (IndexError, KeyError, ValueError) as exc:
        return [f"fit {series}: unparsable output ({exc})"], 0
    errors = []
    if [q for q, _ in plot] != qgrid:
        errors.append(f"fit {series}: plot grid {[q for q, _ in plot]} != {qgrid}")
        return errors, len(plot)
    counts = [v * q**expo for q, v in plot]
    if series == "deg4":
        exact = [deg4_count(q) for q in qgrid]
        for q, got, want in zip(qgrid, counts, exact):
            if not _close(got, want):
                errors.append(f"fit deg4: count at Q={q} is {got!r}, expected {want}")
        counts = exact
    if any(c <= 0 for c in counts) or counts != sorted(counts):
        errors.append(f"fit {series}: counts {counts} are not positive and increasing")
        return errors, len(plot)
    want = power_fit([(float(q), float(c)) for q, c in zip(qgrid, counts)])
    if not (_close(const, want[0]) and _close(expo, want[1]) and _close(resid, want[2])
            and used == want[3]):
        errors.append(f"fit {series}: printed {(const, expo, resid, used)}, expected {want}")
    if abs(expo - FIT_EXPONENT[series]) > 0.05:
        errors.append(f"fit {series}: exponent {expo} far from {FIT_EXPONENT[series]}")
    return errors, len(plot)


def check_bianchi(data: bytes, D: int, Q: int) -> tuple[list[str], int]:
    lines = _lines(data)
    if not lines or lines[0] != BIANCHI_HEADER:
        return ["bianchi csv header missing"], 0
    errors = []
    prev = None
    for line in lines[1:]:
        A, B, a, b, k, lam, nwit = line.split(",")
        A, B, a, b, k, nwit = int(A), int(B), int(a), int(b), int(k), int(nwit)
        if (a, b) != (2 * B - A * A, B * B - 2 * A * A + 2):
            errors.append(f"bianchi ({A}, {B}): lift ({a}, {b}) is wrong")
        elif err := _census_row(a, b, k, float(lam), Q, sr=True):
            errors.append(f"bianchi ({A}, {B}): {err}")
        if k != abs(B - 2) or not 1 <= nwit <= 16:
            errors.append(f"bianchi ({A}, {B}): k = {k}, witnesses = {nwit}")
        if prev is not None and (A, B) <= prev:
            errors.append(f"bianchi ({A}, {B}) out of order after {prev}")
        prev = (A, B)
        if len(errors) > 10:
            break
    rows = len(lines) - 1
    c = math.pi / (2 * math.sqrt(D)) if D % 4 == 3 else math.pi / (4 * math.sqrt(D))
    if abs(rows / (c * math.sqrt(Q)) - 1) > 0.05:
        errors.append(f"bianchi D={D} Q={Q}: {rows} members, expected about {c * math.sqrt(Q):.0f}")
    return errors, rows


# --- real quadratic field o_L, L = Q(sqrt(d)) ---------------------------------


class _Field:
    """Elements u + v w of o_L as pairs, w = (1 + sqrt d)/2 when d = 1 mod 4
    and w = sqrt d otherwise; signs of both embeddings are exact."""

    def __init__(self, d: int):
        self.d = d
        self.half = d % 4 == 1

    def mul(self, x, y):
        (u1, v1), (u2, v2) = x, y
        if self.half:
            c = (self.d - 1) // 4
            return (u1 * u2 + c * v1 * v2, u1 * v2 + u2 * v1 + v1 * v2)
        return (u1 * u2 + self.d * v1 * v2, u1 * v2 + u2 * v1)

    @staticmethod
    def lin(*terms):
        """Sum of coefficient * element pairs, plus a trailing int constant."""
        u = v = 0
        for t in terms:
            if isinstance(t, int):
                u += t
            else:
                c, (x, y) = t
                u, v = u + c * x, v + c * y
        return (u, v)

    def sign(self, x, j: int) -> int:
        """Sign of sigma_j(x), j = 1 (+sqrt d) or 2 (-sqrt d)."""
        u, v = x
        A, B = (2 * u + v, v) if self.half else (u, v)
        if j == 2:
            B = -B
        if A >= 0 and B >= 0 or A <= 0 and B <= 0:
            return (A > 0 or B > 0) - (A < 0 or B < 0)
        return (1 if A > 0 else -1) if A * A > B * B * self.d else (1 if B > 0 else -1)


def check_cocompact(data: bytes, d: int, Q: int, rng: random.Random) -> tuple[list[str], int]:
    lines = _lines(data)
    if lines[:2] != [f"# field={d} qmax={Q}", SYSTEM_HEADER]:
        return ["cocompact csv header missing"], 0
    F = _Field(d)
    rows = []
    errors = []
    for line in lines[2:]:
        au, av, ku, kv, bu, bv, branch, ver = line.split(",")
        a, k, b = (int(au), int(av)), (int(ku), int(kv)), (int(bu), int(bv))
        if b != F.lin((1, F.mul(k, k)), (2, a), -2):
            errors.append(f"cocompact a={a} k={k}: b = {b} is not k^2 + 2a - 2")
        if branch not in ("plus", "minus", "both") or ver not in ("0", "1"):
            errors.append(f"cocompact a={a} k={k}: branch {branch!r}, verified {ver!r}")
        rows.append((a, k, branch, ver == "1"))
        if len(errors) > 10:
            return errors, len(rows)
    for i in _sample(len(rows), rng):
        a, k, branch, verified = rows[i]
        tag = f"cocompact a={a} k={k}"
        if not (F.sign(a, 1) < 0 < F.sign(F.lin((1, a), Q + 3), 1)
                and F.sign(F.lin((1, a), 4), 2) > 0 > F.sign(F.lin((1, a), -4), 2)):
            errors.append(f"{tag}: a outside the box")
        if not (F.sign(k, 1) > 0 > F.sign(F.lin((1, F.mul(k, k)), (4, a)), 1)):
            errors.append(f"{tag}: sigma1(k) outside (0, sqrt(-4 sigma1(a)))")
        plus = F.sign(F.lin((2, k), (-1, a), 4), 2) > 0
        minus = F.sign(F.lin((2, k), (1, a), -4), 2) < 0
        if branch != {(True, True): "both", (True, False): "plus",
                      (False, True): "minus"}.get((plus, minus)):
            errors.append(f"{tag}: branch {branch} does not match the windows")
        if verified and not any(
            F.sign(x, 1) > 0 and F.sign(x, 2) > 0
            for x in (F.lin((-1, a), (2, k), 4), F.lin((-1, a), (-2, k), 4))
        ):
            errors.append(f"{tag}: verified but 4 - a +- 2k is not totally positive")
    nver = sum(r[3] for r in rows)
    if rows and not 0 < nver < len(rows):
        errors.append(f"cocompact: {nver} of {len(rows)} solutions verified")
    return errors, len(rows)


def prepare(cmd) -> dict:
    """Expectations that cost real time to compute, made once per run."""
    if cmd.kind == "census-sr-csv":
        return {"expected_rows": sr_count(cmd.params["Q"])}
    return {}


def check(cmd, data: bytes, rng: random.Random, prepared: dict) -> tuple[list[str], int]:
    """Dispatch on the command kind set by workloads.build."""
    p = cmd.params
    if cmd.kind == "census-sr-csv":
        return check_sr_csv(data, p["Q"], rng, prepared.get("expected_rows"))
    if cmd.kind == "census-deg4-json":
        return check_deg4_json(data, p["Q"], rng)
    if cmd.kind == "census-deg2":
        return check_deg2(data, p["Q"])
    if cmd.kind == "fit":
        return check_fit(data, p["series"], p["qgrid"])
    if cmd.kind == "bianchi-csv":
        return check_bianchi(data, p["D"], p["Q"])
    if cmd.kind == "cocompact-csv":
        return check_cocompact(data, p["d"], p["Q"], rng)
    return [f"no check for command kind {cmd.kind!r}"], 0
