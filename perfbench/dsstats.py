"""Parser for the text that Ray Data's ``Dataset.stats()`` prints.

``pystreamfs_ray.util.stats_table`` keeps one row per ``Operator``: for
an all-to-all ``Sort`` it reads only the first sub-operator (SortMap),
so SortReduce's time is lost, and it keeps no per-task max or mean.
This parser keeps every operator and every sub-operator as its own
section, with task count, per-task wall max, total wall and CPU, so the
benchmark can add SortMap and SortReduce and report task skew.

A dataset built from a materialized one repeats its parent's sections
verbatim at the top of its own ``stats()``; ``layer_sections`` drops
those, leaving the operators one layer ran.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_UNIT_S = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
_HEAD = re.compile(r"^\s*(Operator|Suboperator) (\d+) (.+?):(.*)$")
_TIME = r"([\d.]+)(us|ms|s)"
_STAT = re.compile(
    rf"Remote (wall|cpu) time: {_TIME} min, {_TIME} max, {_TIME} mean, {_TIME} total")
_TASKS = re.compile(r"(\d+) tasks executed")


@dataclass
class Section:
    """One operator or sub-operator of a ``Dataset.stats()`` dump."""

    name: str
    text: str
    tasks: int = 0
    wall_max_s: float = 0.0
    wall_total_s: float = 0.0
    cpu_total_s: float = 0.0


def _sec(value: str, unit: str) -> float:
    return float(value) * _UNIT_S[unit]


def parse_stats(text: str) -> list[Section]:
    """Every operator and sub-operator section of ``text``, in order.

    A sub-operator is named ``<operator>/<sub-operator>``, for example
    ``Sort/SortReduce``. Sections without timings (a ``Union``, a
    barrier's own header, an ``[execution cached]`` sub-operator) parse
    with zero tasks and times."""
    sections: list[Section] = []
    cur: Section | None = None
    parent = ""
    for line in text.splitlines():
        head = _HEAD.match(line)
        if head:
            kind, _, name, rest = head.groups()
            if kind == "Operator":
                parent = name
                sections.append(Section(name=name, text=line))
            else:
                sections.append(Section(name=f"{parent}/{name}", text=line))
            cur = sections[-1]
            tasks = _TASKS.search(rest)
            if tasks:
                cur.tasks = int(tasks.group(1))
            continue
        if cur is None or not line.lstrip().startswith("*"):
            # a blank line or a dataset-level footer ends the section
            cur = None
            continue
        cur.text += "\n" + line
        stat = _STAT.search(line)
        if stat:
            kind, _, _, max_v, max_u, _, _, tot_v, tot_u = stat.groups()
            if kind == "wall":
                cur.wall_max_s = _sec(max_v, max_u)
                cur.wall_total_s = _sec(tot_v, tot_u)
            else:
                cur.cpu_total_s = _sec(tot_v, tot_u)
    return sections


def layer_sections(ds, *parents) -> list[Section]:
    """Sections of ``ds.stats()`` that none of the materialized
    ``parents`` already reported: the operators this layer ran."""
    seen = {s.text for p in parents for s in parse_stats(p.stats())}
    return [s for s in parse_stats(ds.stats()) if s.text not in seen]
