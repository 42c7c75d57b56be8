"""Test-only reference for the flower scores of ``essentia.detect``: each
fvs, oct and dfvs vertex scored on the subgraph induced by its whole weak
component, as detection did before it scored each vertex on the blocks
that contain it.  Both must give every vertex the same score; the petals
may differ, and each must still verify.  Nothing under ``src/`` imports
this module.
"""
from __future__ import annotations

from essentia.detect import FlowerCertificate, flower_number_dfvs, flower_number_fvs, flower_number_oct
from essentia.graphs import Digraph, Graph, components, induced

FLOWER_NUMBERS = {"fvs": flower_number_fvs, "oct": flower_number_oct,
                  "dfvs": flower_number_dfvs}


def component_scores(problem: str, g: Graph | Digraph) -> list[tuple[int, FlowerCertificate]]:
    """(flower number, certificate) of every vertex of g, each from one
    kernel call on its component, in the ids of g."""
    flower_number = FLOWER_NUMBERS[problem]
    out: list = [None] * g.n
    for vs in components(g):
        h = induced(g, vs)
        for i, v in enumerate(vs):
            score, cert = flower_number(h, i)
            petals = tuple(tuple(vs[x] for x in p) for p in cert.petals)
            out[v] = (score, FlowerCertificate(vs[cert.center], petals))
    return out
