"""Test-only reference for the T-path packers' shared tail: the
normalize-then-project reading of the paths off a maximum matching of
the auxiliary graph.  ``_normalize`` rewrites the matching, at the same
size, until no non-terminal has a doubled projection or a single
matched copy; ``_project_and_extract`` then projects the matched edges
to G and walks each path component from its smaller terminal.
``essentia.tpaths._pack`` must return exactly this tuple from the same
auxiliary graph, so it stays here as the slow, obviously-correct
statement of that behaviour.  Nothing under ``src/`` imports this module.
"""
from __future__ import annotations

from essentia.matching import max_matching_adj


def _project_and_extract(
    terminals: frozenset[int],
    mate: list[int],
    back: list[int],
    expected: int,
    odd: bool,
) -> list[tuple[int, ...]]:
    """Project matched auxiliary edges to G-edges and read off the path
    components; back maps each auxiliary vertex to its G-vertex, so a
    matched pair with one image is a copy-pair edge and projects to
    nothing."""
    adj: dict[int, list[int]] = {}
    seen_pairs = set()
    for x, y in enumerate(mate):
        if y == -1 or y < x:
            continue
        u, v = back[x], back[y]
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen_pairs:
            raise AssertionError("normalization left a doubled projection")
        seen_pairs.add(key)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for v, nbrs in adj.items():
        if v in terminals:
            if len(nbrs) > 1:
                raise AssertionError("terminal with projected degree > 1")
        elif len(nbrs) not in (0, 2):
            raise AssertionError("non-terminal with projected degree not in {0, 2}")
    paths = []
    visited: set[int] = set()
    for t in sorted(adj):
        if t not in terminals or t in visited or not adj[t]:
            continue
        path = [t]
        visited.add(t)
        prev, cur = t, adj[t][0]
        while True:
            path.append(cur)
            visited.add(cur)
            if cur in terminals:
                break
            nxt = [w for w in adj[cur] if w != prev]
            prev, cur = cur, nxt[0]
        paths.append(tuple(path))
    if len(paths) != expected:
        raise AssertionError(
            f"extracted {len(paths)} paths, matching promised {expected}"
        )
    if odd and any(len(p) % 2 != 0 for p in paths):
        raise AssertionError("extracted path of even edge length in odd packing")
    return paths


def _normalize(mate: list[int], pairs: list[tuple[int, int]]) -> None:
    """Re-pair doubled projections and singly-matched copy pairs in place.

    pairs lists each non-terminal's two copies.  Every rewrite preserves
    the matching size, so the matching stays maximum.
    """
    pair_of = {}
    for a, b in pairs:
        pair_of[a] = b
        pair_of[b] = a
    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            ma, mb = mate[a], mate[b]
            if ma == b:
                continue
            if ma != -1 and mb != -1:
                # Doubled projection: both copies matched into one pair.
                if pair_of.get(ma) == mb:
                    wa, wb = ma, mb
                    mate[a], mate[b] = b, a
                    mate[wa], mate[wb] = wb, wa
                    changed = True
            elif ma != -1 or mb != -1:
                # Exactly one copy matched, and not to its partner.
                x = ma if ma != -1 else mb
                mate[x] = -1
                mate[a], mate[b] = b, a
                changed = True


def reference_pack(T: frozenset[int], adj: list[list[int]], pairs: list[tuple[int, int]],
                   back: list[int], odd: bool) -> tuple[tuple[int, ...], ...]:
    """The packers' tail, with ``_pack``'s arguments: a maximum matching of the auxiliary
    graph adj exceeds its copy pairs by the packing number; normalize it
    and read the paths off through back."""
    mate = max_matching_adj(adj)
    nu = sum(1 for v, m in enumerate(mate) if m > v)
    count = nu - len(pairs)
    if count < 0:
        raise AssertionError("matching smaller than the copy-pair baseline")
    _normalize(mate, pairs)
    return tuple(_project_and_extract(T, mate, back, count, odd))
