"""Reading the CLI's report and checking it against the expected answer.

The report is the CLI's `key: value` output: a header up to `horizon:`,
then per engine its `engine:`, `probability:`, `truncated:` and
`terminal distribution:` lines with one `  <mass>  <description>` line per
terminal entry, then the pairwise `delta[a,b]:` lines.

Terminal entry counts legitimately differ between engines (msiam keeps
states apart that the other engines merge), so checks look at masses and
probabilities only, never at entry counts compared across engines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from programs import TOL, Expect

ENGINES = ("pcf", "net", "msiam")
# The CLI prints probabilities with 12 decimals and the closed forms here
# are exact, so printed values must match them to within rounding.
PRINTED = Fraction(1, 10**11)
_INT_MEMORY = re.compile(r"IntRegisterMemory\(\{(.*)\}\)\s*$")


@dataclass
class EngineReport:
    probability: float | None = None
    truncated: bool | None = None
    masses: list[float] = field(default_factory=list)
    descriptions: list[str] = field(default_factory=list)


def parse_report(lines: list[str]) -> tuple[dict[str, EngineReport], dict[str, float]]:
    """(report per engine, delta per engine pair) from the CLI's lines."""
    engines: dict[str, EngineReport] = {}
    deltas: dict[str, float] = {}
    cur: EngineReport | None = None
    for line in lines:
        if line.startswith("engine: "):
            cur = engines.setdefault(line[len("engine: "):], EngineReport())
        elif line.startswith("delta["):
            key, value = line.split(": ", 1)
            deltas[key[len("delta["):-1]] = float(value)
            cur = None
        elif cur is None:
            continue
        elif line.startswith("probability: "):
            cur.probability = float(line.split(": ", 1)[1])
        elif line.startswith("truncated: "):
            cur.truncated = line.split(": ", 1)[1] == "true"
        elif line.startswith("  "):
            mass, desc = line.strip().split("  ", 1)
            cur.masses.append(float(mass))
            cur.descriptions.append(desc)
    return engines, deltas


def _close(x: float, want: Fraction) -> bool:
    return abs(Fraction(x) - want) <= PRINTED


def check_engine(rep: EngineReport | None, expect: Expect) -> str | None:
    """None if one engine's report meets `expect`, else what is wrong."""
    if rep is None or rep.probability is None or rep.truncated is None:
        return "no report"
    if not _close(rep.probability, expect.probability):
        return f"probability {rep.probability!r}, expected {float(expect.probability)!r}"
    if rep.truncated != expect.truncated:
        return f"truncated {rep.truncated}, expected {expect.truncated}"
    # Printed masses carry 12 decimals, so their sum may drift by 5e-13 each.
    if abs(sum(rep.masses) - rep.probability) > TOL + 5e-13 * len(rep.masses):
        return f"terminal masses add up to {sum(rep.masses)!r}, not {rep.probability!r}"
    if expect.uniform is not None:
        want = Fraction(1, expect.uniform)
        bad = [m for m in rep.masses if not _close(m, want)]
        if bad:
            return f"{len(bad)} terminal entries differ from mass 1/{expect.uniform}, e.g. {bad[0]!r}"
    if expect.register is not None:
        for desc in rep.descriptions:
            m = _INT_MEMORY.search(desc)
            values = m and [v.split(": ")[1] for v in m.group(1).split(", ") if v]
            if values != [str(expect.register)]:
                return f"terminal memory {desc!r}, expected one register holding {expect.register}"
    return None


def check_agreement(rc: int, deltas: dict[str, float]) -> str | None:
    """None if the CLI reported all three engines within tolerance."""
    if rc != 0:
        return f"exit code {rc}"
    pairs = ("pcf,net", "net,msiam", "pcf,msiam")
    missing = [p for p in pairs if p not in deltas]
    if missing:
        return f"no delta for {', '.join(missing)}"
    bad = [p for p in pairs if deltas[p] > TOL]
    return f"engines disagree: {', '.join(bad)}" if bad else None
