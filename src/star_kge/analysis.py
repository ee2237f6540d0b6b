"""Two-hop path statistics over relation pairs and their imbalance ratios.

For an ordered relation pair (i, j) the path count is the number of entity
chains (e1, e2, e3) with (e1, ri, e2) and (e2, rj, e3) both in the train
split; self-returning (e1 = e3) and self-looping (e1 = e2 or e2 = e3)
chains count by default. The per-pair imbalance

    psi(i, j) = (max(c_ij, c_ji) - min(c_ij, c_ji)) / (c_ij + c_ji)

is 0 when both orders are equally frequent and 1 when only one order
occurs. The dataset-level ratio Psi is the fraction of two-hop paths whose
unordered pair occurs in a single order only.

Counting joins the train split on the middle entity: with per-entity
incidence count matrices In[e, i] and Out[e, j] the ordered counts are
In^T @ Out, since chains through different middle entities are disjoint.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import TripleStore, _expand_runs


@dataclass
class PairCounts:
    """Ordered two-hop path counts: counts[i, j] = #chains realizing ri then rj."""

    counts: np.ndarray
    num_relations: int
    degenerate_excluded: bool = False

    def pair(self, i: int, j: int) -> tuple[int, int]:
        return int(self.counts[i, j]), int(self.counts[j, i])

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass
class ImbalanceReport:
    psi: dict[tuple[int, int], float]
    Psi: float
    triple_both: int
    triple_single: int
    counts: PairCounts
    include_diagonal: bool = True
    relation_names: list[str] | None = None

    def to_dict(self) -> dict:
        return {
            "Psi": self.Psi,
            "triple_both": self.triple_both,
            "triple_single": self.triple_single,
            "policy": {
                "include_diagonal_pairs": self.include_diagonal,
                "exclude_degenerate_paths": self.counts.degenerate_excluded,
            },
            "pairs": [
                {
                    "i": i,
                    "j": j,
                    "name_i": self.relation_names[i] if self.relation_names else str(i),
                    "name_j": self.relation_names[j] if self.relation_names else str(j),
                    "count_ij": int(self.counts.counts[i, j]),
                    "count_ji": int(self.counts.counts[j, i]),
                    "psi": p,
                }
                for (i, j), p in sorted(self.psi.items())
            ],
        }


def _incidence(triples: np.ndarray, num_entities: int, num_relations: int, col: int) -> np.ndarray:
    code = triples[:, col] * num_relations + triples[:, 1]
    return np.bincount(code, minlength=num_entities * num_relations).reshape(num_entities, -1).astype(np.float64)


def count_two_paths(store: TripleStore, exclude_degenerate: bool = False) -> PairCounts:
    """Count ordered two-hop chains for every relation pair on the train split.

    ``exclude_degenerate`` keeps only chains whose three entities are all
    distinct, for sensitivity analysis. A chain has e1 = e2 or e2 = e3
    exactly when one of its hops is a self-loop, so self-loop triples are
    dropped before counting; the e1 = e3 returns left over are then
    subtracted, found by joining every edge (h, r, t) with every edge
    (t, r2, h). Reciprocal relations never participate. All products stay
    in float64 where every intermediate value is an exact integer, then
    cast back.
    """
    tr = store.train
    ne, nr = store.num_entities, store.num_relations
    if exclude_degenerate:
        tr = tr[tr[:, 0] != tr[:, 2]]
    in_mat = _incidence(tr, ne, nr, col=2)  # in_mat[e, r]  = #(. , r, e)
    out_mat = _incidence(tr, ne, nr, col=0)  # out_mat[e, r] = #(e , r, .)
    out = np.rint(in_mat.T @ out_mat).astype(np.int64)

    if exclude_degenerate:
        # join each edge (h, r, t) with every edge (t, r2, h): both sides are
        # sorted keys (h * |E| + t) * |R| + r, the needles reversed to (t, h)
        h, r, t = tr.T
        pair, rel = np.divmod(np.sort((h * ne + t) * nr + r), nr)
        back, back_rel = np.divmod(np.sort((t * ne + h) * nr + r), nr)
        lo = np.searchsorted(pair, back)
        row, at = _expand_runs(lo, np.searchsorted(pair, back, side="right") - lo)
        out -= np.bincount(back_rel[row] * nr + rel[at], minlength=nr * nr).reshape(nr, nr)

    if (out < 0).any():
        raise AssertionError("negative path count, exclusion bookkeeping is wrong")
    return PairCounts(out, nr, degenerate_excluded=exclude_degenerate)


def pair_imbalance(counts: PairCounts, i: int, j: int) -> float:
    """Imbalance of one relation pair; undefined (raises) when no chain exists.

    Written as (max - min) / sum, algebraically identical to
    2 * max / sum - 1 but exact for small integer counts.
    """
    c_ij, c_ji = counts.pair(i, j)
    total = c_ij + c_ji
    if total == 0:
        raise ValueError(f"relation pair ({i}, {j}) has no two-hop chains in either order")
    return (max(c_ij, c_ji) - min(c_ij, c_ji)) / total


def dataset_imbalance(counts: PairCounts, include_diagonal: bool = True) -> ImbalanceReport:
    """Classify every unordered pair as both-orders or single-order and
    aggregate the dataset imbalance ratio.

    A pair {i, j} with chains in both orders contributes its chains to the
    balanced mass, a pair seen in one order only to the imbalanced mass;
    Psi = single / (both + single). Diagonal pairs (i = j) have only one
    order, which by default counts as `both` (the two orders coincide);
    ``include_diagonal=False`` drops them instead.
    """
    c = counts.counts
    i, j = np.triu_indices(counts.num_relations, k=0 if include_diagonal else 1)
    c_ij, c_ji = c[i, j], c[j, i]
    total = np.where(i == j, c_ij, c_ij + c_ji)
    keep = total > 0
    i, j, c_ij, c_ji, total = i[keep], j[keep], c_ij[keep], c_ji[keep], total[keep]
    # exact integers below 2**53, so each float64 quotient is rounded as
    # pair_imbalance's int division is; a diagonal pair gets 0 / c_ii = 0.0
    psi = dict(zip(zip(i.tolist(), j.tolist()), (np.abs(c_ij - c_ji) / total).tolist()))
    balanced = (c_ij > 0) & (c_ji > 0)
    both = int(total[balanced].sum())
    single = int(total[~balanced].sum())
    if both + single == 0:
        raise ValueError("no two-hop chains at all, imbalance ratio is undefined")
    return ImbalanceReport(
        psi=psi,
        Psi=single / (both + single),
        triple_both=both,
        triple_single=single,
        counts=counts,
        include_diagonal=include_diagonal,
    )


# export ------------------------------------------------------------------------


def _psi_color(psi: float) -> str:
    """Blue for balanced pairs, fading to gray as the imbalance grows."""
    b = (31, 119, 180)
    g = (150, 150, 150)
    mix = tuple(round(b[k] + (g[k] - b[k]) * psi) for k in range(3))
    return f"rgb({mix[0]},{mix[1]},{mix[2]})"


def _arc_svg(report: ImbalanceReport, width=900, height=420) -> str:
    names = report.relation_names or [str(i) for i in range(report.counts.num_relations)]
    used = sorted({i for pair in report.psi for i in pair})
    if not used:
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
            "<!-- no relation pairs --></svg>"
        )
    x_of = {
        rid: 40 + (width - 80) * (k / max(len(used) - 1, 1)) for k, rid in enumerate(used)
    }
    base_y = height - 60
    max_count = max(
        report.counts.counts[i, j] + report.counts.counts[j, i] for i, j in report.psi
    )
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for (i, j), psi in sorted(report.psi.items()):
        total = int(report.counts.counts[i, j] + report.counts.counts[j, i])
        rel_weight = total / max_count
        stroke = 0.75 + 7.0 * math.sqrt(rel_weight)
        opacity = 0.25 + 0.7 * rel_weight
        color = _psi_color(psi)
        x1, x2 = x_of[i], x_of[j]
        if i == j:
            r = 12.0
            path = (
                f'<circle cx="{x1:.1f}" cy="{base_y - r:.1f}" r="{r:.1f}" fill="none" '
                f'stroke="{color}" stroke-width="{stroke:.2f}" stroke-opacity="{opacity:.3f}"/>'
            )
        else:
            arc_h = min(abs(x2 - x1) * 0.6, base_y - 30)
            path = (
                f'<path d="M {x1:.1f} {base_y} C {x1:.1f} {base_y - arc_h:.1f}, '
                f'{x2:.1f} {base_y - arc_h:.1f}, {x2:.1f} {base_y}" fill="none" '
                f'stroke="{color}" stroke-width="{stroke:.2f}" stroke-opacity="{opacity:.3f}">'
                f"<title>{names[i]} / {names[j]}: {total} paths, psi={psi:.3f}</title></path>"
            )
        parts.append(path)
    for rid in used:
        x = x_of[rid]
        parts.append(f'<circle cx="{x:.1f}" cy="{base_y}" r="3" fill="#333"/>')
        parts.append(
            f'<text x="{x:.1f}" y="{base_y + 14}" font-size="9" text-anchor="end" '
            f'transform="rotate(-45 {x:.1f} {base_y + 14})">{names[rid]}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def export_arc_data(report: ImbalanceReport, out_path, fmt: str = "csv") -> Path:
    """Write the pair table as CSV or render the pairs as an SVG arc diagram.

    CSV rows are (rel_i, rel_j, count_ij, count_ji, psi); in the SVG, arc
    color encodes the pair imbalance (blue balanced, gray imbalanced) and
    stroke width/opacity encode the relative chain count.
    """
    out_path = Path(out_path)
    if fmt == "csv":
        names = report.relation_names or [str(i) for i in range(report.counts.num_relations)]
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rel_i", "rel_j", "count_ij", "count_ji", "psi"])
            for (i, j), psi in sorted(report.psi.items()):
                writer.writerow(
                    [
                        names[i],
                        names[j],
                        int(report.counts.counts[i, j]),
                        int(report.counts.counts[j, i]),
                        f"{psi:.6f}",
                    ]
                )
    elif fmt == "svg":
        out_path.write_text(_arc_svg(report), encoding="utf-8")
    else:
        raise ValueError(f"unknown export format {fmt!r} (expected csv or svg)")
    return out_path
