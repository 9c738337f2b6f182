"""The desk-scale regression corpus: rings and ideals every release must pass."""

from __future__ import annotations

from dataclasses import dataclass

from .config import DEFAULT, Guards
from .rings import (MatrixSpec, ProductSpec, QuotientSpec, RingSpec,
                    TriangularSpec, ZmodSpec, _key, all_ideals, build_ring,
                    element_from_descriptor, ideal_closure)

E12 = [[0, 1], [0, 0]]
ONE2 = [[1, 0], [0, 1]]


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    spec: RingSpec
    ideal_mode: str          # "all" or "given"
    generators: tuple        # descriptor tuples when ideal_mode == "given"
    tags: tuple


CORPUS = [
    *[CorpusEntry(f"zmod({n})", ZmodSpec(n), "all", (), ("zmod",))
      for n in (2, 3, 4, 6, 8, 9, 16)],
    CorpusEntry("triangular(zmod(2),2)", TriangularSpec(ZmodSpec(2), 2),
                "given", (_key(E12),), ("triangular",)),
    CorpusEntry("triangular(zmod(4),2)", TriangularSpec(ZmodSpec(4), 2),
                "given", (_key(E12),), ("triangular", "slow")),
    CorpusEntry("matrix(zmod(2),2)+zero", MatrixSpec(ZmodSpec(2), 2),
                "given", (), ("matrix",)),
    CorpusEntry("matrix(zmod(2),2)+full", MatrixSpec(ZmodSpec(2), 2),
                "given", (_key(ONE2),), ("matrix",)),
    CorpusEntry("zmod(2)xM2(zmod(2))+left",
                ProductSpec(ZmodSpec(2), MatrixSpec(ZmodSpec(2), 2)),
                "given", (_key([1, [[0, 0], [0, 0]]]),), ("product",)),
    CorpusEntry("zmod(2)xM2(zmod(2))+right",
                ProductSpec(ZmodSpec(2), MatrixSpec(ZmodSpec(2), 2)),
                "given", (_key([0, ONE2]),), ("product",)),
    CorpusEntry("quotient(zmod(16),[4])",
                QuotientSpec(ZmodSpec(16), (4,)), "all", (), ("quotient",)),
    CorpusEntry("quotient(triangular(zmod(2),2),[e12])",
                QuotientSpec(TriangularSpec(ZmodSpec(2), 2),
                             (_key(E12),)),
                "all", (), ("quotient",)),
    CorpusEntry("quotient(zmod(2)xM2,[0xM2])",
                QuotientSpec(ProductSpec(ZmodSpec(2),
                                         MatrixSpec(ZmodSpec(2), 2)),
                             (_key([0, ONE2]),)),
                "all", (), ("quotient",)),
]


def corpus_pairs(guards: Guards = DEFAULT, include_slow: bool = True):
    """(name, ring, ideal, tags) for every (ring, ideal) pair in the corpus."""
    out = []
    for entry in CORPUS:
        if not include_slow and "slow" in entry.tags:
            continue
        ring = build_ring(entry.spec, guards)
        if entry.ideal_mode == "all":
            ideals = all_ideals(ring)
            sizes = [len(ideal.members) for ideal in ideals]
            for ideal, n in zip(ideals, sizes):
                # ideals of one size are told apart by their generators
                gens = (f" gens={list(ideal.generators)}"
                        if sizes.count(n) > 1 else "")
                out.append((f"{entry.name} |I|={n}{gens}", ring, ideal,
                            entry.tags))
        else:
            gens = [element_from_descriptor(ring, g) for g in entry.generators]
            ideal = ideal_closure(ring, gens)
            out.append((f"{entry.name}", ring, ideal, entry.tags))
    return out
