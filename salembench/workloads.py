"""Seeded workload generator for the salem benchmark.

A workload is a fixed list of `salem` command lines run one after another.
The seed only moves each size Q inside a narrow band around its base value,
so every seed does about the same amount of work; the program itself sees
nothing but the generated argv.  Every command pins `--workers 1`.

Output paths are written as `{out}/NAME`; the runner substitutes its
temporary directory.  The argv with the placeholder still in it is the key
under which output digests are recorded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Relative half-width of the band each Q is drawn from.
BAND = 0.005

# The seed whose outputs have recorded sha256 digests (digests.json).
DEFAULT_SEED = 1

WHY = {
    "census-enum": (
        "census sr and census deg4 --format json write about 300k rows; stresses the census "
        "enumerators, record building and cli formatting and writing; bypasses counting"
    ),
    "census-count": (
        "fit deg4, fit sr and census deg2 count without enumerating; stresses the census "
        "count loops and asymptotics.power_fit; bypasses record building and output"
    ),
    "field-census": (
        "bianchi --d 3, cocompact --field 5 --verified and fit system --field 2; stresses "
        "bianchi, totally_real and algebra, which the integer workloads never call"
    ),
}


@dataclass(frozen=True)
class Command:
    """One `salem` invocation and what its output check needs to know."""

    kind: str
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict)
    out: str | None = None  # file name under {out}/, or None for stdout

    def resolved(self, outdir: str) -> list[str]:
        return [tok.replace("{out}", outdir) for tok in self.argv]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _near(rng: random.Random, base: int) -> int:
    return round(base * (1 + rng.uniform(-BAND, BAND)))


def _grid(top: int, points: int = 5) -> list[int]:
    """Doubling grid ending at top, ascending."""
    return [top >> i for i in reversed(range(points))]


def _census(which: str, q: int, *extra: str, out: str | None = None) -> Command:
    argv = ["census", which, "--qmax", str(q), "--workers", "1", *extra]
    if out:
        argv += ["--out", "{out}/" + out]
    kind = f"census-{which}"
    if out:
        kind += "-json" if "json" in extra else "-csv"
    return Command(kind, tuple(argv), {"Q": q}, out)


def _fit(series: str, top: int, *extra: str) -> Command:
    qs = _grid(top)
    argv = ["fit", "--series", series, "--qgrid", ",".join(map(str, qs)), *extra,
            "--plot-data", "--workers", "1"]
    return Command("fit", tuple(argv), {"series": series, "qgrid": qs})


def build(name: str, seed: int) -> list[Command]:
    """The command list of workload `name` for `seed`."""
    if name not in WHY:
        raise KeyError(name)
    rng = random.Random(f"salembench:{name}:{seed}")
    if name == "census-enum":
        return [
            _census("sr", _near(rng, 3500), out="sr.csv"),
            _census("deg4", _near(rng, 130), "--format", "json", out="deg4.json"),
        ]
    if name == "census-count":
        return [
            _fit("deg4", _near(rng, 200_000)),
            _fit("sr", _near(rng, 35_000)),
            _census("deg2", _near(rng, 500_000)),
        ]
    d_bianchi, d_field, d_fit = 3, 5, 2
    q_b, q_c = _near(rng, 3 * 10**9), _near(rng, 60)
    return [
        Command("bianchi-csv",
                ("bianchi", "--d", str(d_bianchi), "--qmax", str(q_b), "--workers", "1",
                 "--out", "{out}/bianchi.csv"),
                {"D": d_bianchi, "Q": q_b}, "bianchi.csv"),
        Command("cocompact-csv",
                ("cocompact", "--field", str(d_field), "--qmax", str(q_c), "--verified",
                 "--workers", "1", "--out", "{out}/cocompact.csv"),
                {"d": d_field, "Q": q_c}, "cocompact.csv"),
        _fit("system", _near(rng, 2000), "--field", str(d_fit)),
    ]
