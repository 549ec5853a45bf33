"""The reference kernel every timing in the benchmark is divided by.

Host speed on a shared machine drifts by tens of percent between (and
within) processes, and every timing of the program drifts with it. The
kernel below does the same kinds of interpreter-bound work the program does
-- edit distance, regex tokenising, dict counting, building small records,
and unmarshalling code (what ``import`` spends its time on) -- so
``raw_ms * K_REF / k_run`` (a time in *reference ms*) cancels most of that
drift. The mix matters: tight loops alone slow down about twice as much as
the program does when the host is contended, unmarshalling and allocation
much less. The kernel imports nothing from ``repro``: a change to the
program can never move it, except through interpreter-global state (gc
thresholds, ``gc.freeze``), which makes a gain look smaller, never larger.
"""

from __future__ import annotations

import gc
import marshal
import re
import time

#: Kernel seconds per rep on the reference host (2-core x86_64 VM,
#: CPython 3.11). Fixed: changing it rescales every reported time.
K_REF = 0.002

_TOKEN_RE = re.compile(r"[A-Za-z]+|\d+|[^\sA-Za-z\d]")
_WORDS = (
    "monarch high school", "coconut creek elementary", "pompano beach center",
    "north lauderdale rec", "margate middle school", "tamarac community hall",
    "deerfield park pavilion", "lighthouse point library",
)


def _synthetic_module(n_functions: int = 24) -> str:
    """Source of a module shaped like the program's: small functions full of
    names, string constants and literals."""
    parts = []
    for i in range(n_functions):
        parts.append(
            f"def handler_{i}(row, schema=None, *, limit={i}):\n"
            f"    names = ('Name', 'Street', 'City', 'Zip{i}', 'Lat', 'Lon')\n"
            f"    out = {{k: row.get(k, '') for k in names if k in (schema or names)}}\n"
            f"    if len(out) > limit:\n"
            f"        return [str(v).strip().lower() for v in out.values()][:limit]\n"
            f"    return sorted(out.items(), key=lambda kv: (len(kv[1]), kv[0]))\n"
        )
    return "\n".join(parts)


_CODE_BLOB = marshal.dumps(compile(_synthetic_module(), "<refkernel>", "exec"))


class _Cell:
    __slots__ = ("text", "tokens", "kind")

    def __init__(self, text: str, tokens: list[str], kind: str):
        self.text = text
        self.tokens = tokens
        self.kind = kind


def _edit_distance(a: str, b: str) -> int:
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        current = [i]
        for j, cb in enumerate(b, 1):
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb)))
        previous = current
    return previous[-1]


def kernel() -> int:
    """One rep of fixed work; returns a checksum so nothing is optimised away."""
    counts: dict[str, int] = {}
    cells = []
    total = 0
    for _ in range(8):
        total += len(marshal.loads(_CODE_BLOB).co_consts)
    records = [{"name": f"n{i}", "key": (i, str(i)), "pair": [i, i + 1]} for i in range(600)]
    total += len(records)
    for round_ in range(1):
        for index, words in enumerate(_WORDS):
            text = f"{words} {round_ * 31 + index}, Apt {index}-B"
            tokens = _TOKEN_RE.findall(text)
            for token in tokens:
                key = token.lower()
                counts[key] = counts.get(key, 0) + 1
            cells.append(_Cell(text, tokens, "num" if tokens[-1].isdigit() else "word"))
    for left, right in zip(cells, cells[1:]):
        total += _edit_distance(left.text[:18], right.text[:18])
    return total + len(counts) + sum(1 for cell in cells if cell.kind == "word")


def measure(reps: int = 3) -> float:
    """Minimum seconds of *reps* kernel reps, run with gc disabled."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if was_enabled:
            gc.enable()


def to_reference(raw_seconds: float, k_run: float) -> float:
    """Scale a raw duration to reference units: ``raw * K_REF / k_run``."""
    return raw_seconds * K_REF / k_run
