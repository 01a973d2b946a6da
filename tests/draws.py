"""Random planar diagrams for the tests, and the dict state they glue on.

`_Gluing` is the planar dart matching of the census's shadow search with
its state kept in dicts: the frontier faces and their components, and a
strand union-find.  `census._shadow_search` walks the same tree on flat
lists, and the tests check its leaves against this state's, in order.
`random_diagram` glues on it with every fresh crossing offered, in
random order; the rewrite, closure and loopy-adder goldens are built
from its draws.
"""

import random
from itertools import count

from tanglekit.census import _LABELS, _strings_of, _variant
from tanglekit.diagram.core import TangleDiagram
from tanglekit.errors import TangleError

# glue attempts per unit of random_diagram's restart schedule
RESTART_UNIT = 32


class _Gluing:
    """Backtracking state for planar dart matching."""

    def __init__(self, n: int, k: int = 6):
        self.n = n
        self.k = k
        self.alpha = [-1] * (4 * n + k)
        # strand segments, crossing transits pre-joined; no path compression,
        # so a union is undone on backtrack by resetting one root
        self.seg = list(range(4 * n + k))
        for c in range(n):
            self.seg[4 * c] = 4 * c + 2
            self.seg[4 * c + 1] = 4 * c + 3
        # frontier faces, numbered like their components: the boundary
        # cycle, then one hole per crossing, running against the rotation
        holes = [[4 * c, 4 * c + 3, 4 * c + 2, 4 * c + 1] for c in range(n)]
        self.faces = dict(enumerate([[4 * n + j for j in range(k)]] + holes))
        self.face_of = {d: fid for fid, face in self.faces.items() for d in face}
        self.comp_of_face = {fid: fid for fid in self.faces}
        self.next_face = n + 1
        self.fresh = set(range(n))

    def _seg_find(self, x: int) -> int:
        while self.seg[x] != x:
            x = self.seg[x]
        return x

    def pivot(self) -> int | None:
        """Lowest unmatched dart, boundary endpoints first."""
        for j in range(self.k):
            if self.alpha[4 * self.n + j] < 0:
                return 4 * self.n + j
        for d in range(4 * self.n):
            if self.alpha[d] < 0:
                return d
        return None

    def candidates(self, d0: int, all_fresh: bool = False) -> list[int]:
        """Legal partners for d0.

        By default fresh crossings are offered only through the lowest one
        at slot 0 (symmetry breaking for the exhaustive search, which thus
        emits each shadow class once; see generate_diagrams).  all_fresh
        lifts that restriction for randomized draws.
        """
        faces, fresh, seg = self.faces, self.fresh, self.seg
        f0 = self.face_of[d0]
        c0 = self.comp_of_face[f0]
        out = [d for d in faces[f0] if d != d0]
        for fid, comp in self.comp_of_face.items():
            # fresh crossings' holes are offered below
            if comp != c0 and faces[fid][0] // 4 not in fresh:
                out.extend(faces[fid])
        if all_fresh:
            out.extend(4 * c for c in fresh if c != d0 // 4)
        elif fresh:
            rep = min(fresh)
            if rep != d0 // 4:
                out.append(4 * rep)  # fresh crossing joins via slot 0
        # loop-closure pruning
        r0 = self._seg_find(d0)
        keep = []
        for d in out:
            r = d
            while seg[r] != r:
                r = seg[r]
            if r != r0:
                keep.append(d)
        return keep

    def glue(self, a: int, b: int):
        """Match darts a and b; returns an undo token or None when pruned.

        Gluing within one frontier face splits it; gluing faces of two
        components merges them (relabelling b's component to a's); gluing
        two faces of one component would add genus.
        """
        faces, face_of, comp_of_face = self.faces, self.face_of, self.comp_of_face
        fa, fb = face_of[a], face_of[b]
        ca, cb = comp_of_face[fa], comp_of_face[fb]
        if fa == fb:
            face = faces.pop(fa)
            del comp_of_face[fa]
            ia, ib = face.index(a), face.index(b)
            if ia > ib:
                ia, ib = ib, ia
            parts = (face[ia + 1 : ib], face[ib + 1 :] + face[:ia])
            removed = ((fa, face, ca),)
            relabeled = ()
        elif ca == cb:
            return None
        else:
            facea, faceb = faces.pop(fa), faces.pop(fb)
            del comp_of_face[fa], comp_of_face[fb]
            ia, ib = facea.index(a), faceb.index(b)
            parts = (facea[ia + 1 :] + facea[:ia] + faceb[ib + 1 :] + faceb[:ib],)
            removed = ((fa, facea, ca), (fb, faceb, cb))
            relabeled = [fid for fid, c in comp_of_face.items() if c == cb]
            for fid in relabeled:
                comp_of_face[fid] = ca
        new = []
        for part in parts:
            if part:
                fid = self.next_face
                self.next_face = fid + 1
                faces[fid] = part
                comp_of_face[fid] = ca
                for d in part:
                    face_of[d] = fid
                new.append(fid)
        self.alpha[a] = b
        self.alpha[b] = a
        seg = self._seg_find(a)
        self.seg[seg] = self._seg_find(b)
        gone = self.fresh & {a // 4, b // 4}
        self.fresh -= gone
        return (a, b, seg, removed, relabeled, cb, new, gone)

    def unglue(self, undo) -> None:
        a, b, seg, removed, relabeled, cb, new, gone = undo
        faces, face_of, comp_of_face = self.faces, self.face_of, self.comp_of_face
        self.fresh |= gone
        self.seg[seg] = seg
        self.alpha[a] = self.alpha[b] = -1
        for fid in new:
            del comp_of_face[fid]
            del faces[fid]
        for fid in relabeled:
            comp_of_face[fid] = cb
        for fid, face, comp in removed:
            faces[fid] = face
            comp_of_face[fid] = comp
            for d in face:
                face_of[d] = fid


def _luby(i: int) -> int:
    """Term i >= 1 of Luby's universal restart sequence 1, 1, 2, 1, 1, 2, 4, ..."""
    k = i.bit_length()
    if i == (1 << k) - 1:
        return 1 << (k - 1)
    return _luby(i - (1 << (k - 1)) + 1)


def random_diagram(rng: random.Random, n: int, k: int = 6, walk_tries: int = 400):
    """One random planar loop-free diagram with exactly n crossings.

    Fast path: restartable random walks; fallback: randomized backtracking
    with restarts, which always succeeds when any diagram exists.  Needs
    n >= 0 and an even k from 2 to 12: a closed (k = 0) draw has no
    boundary face to start from, an odd k leaves an endpoint unmatched,
    and the strings are labelled "a" to "f".
    """
    if n < 0:
        raise TangleError(f"random_diagram needs n >= 0 crossings, got {n}")
    if k < 2 or k % 2 or k > 2 * len(_LABELS):
        raise TangleError(f"random_diagram needs an even k of 2 to 12 endpoints, got {k}")

    def finish(alpha: tuple[int, ...]) -> TangleDiagram | None:
        variant = _variant(alpha, n, rng.randrange(1 << n))
        strings = _strings_of(variant, n, k)
        if strings:
            return TangleDiagram(n, k, variant, strings)
        return None

    for _ in range(walk_tries):
        state = _Gluing(n, k)
        stuck = False
        while not stuck:
            d0 = state.pivot()
            if d0 is None:
                break
            cands = state.candidates(d0, all_fresh=True)
            rng.shuffle(cands)
            stuck = True
            for b in cands:
                if state.glue(d0, b) is not None:
                    stuck = False
                    break
        if not stuck:
            out = finish(tuple(state.alpha))
            if out is not None:
                return out

    # fallback: randomized backtracking over the walks' candidates, whose
    # run time is heavy-tailed, so each run is cut off after
    # RESTART_UNIT * luby(run) glue attempts and restarted with fresh
    # randomness (Gomes, Selman & Kautz, AAAI 1998; Luby, Sinclair &
    # Zuckerman, IPL 1993).  The cutoffs grow without bound, so a run that
    # ends under its cutoff has searched the whole tree, and the search
    # stays complete.
    for run in count(1):
        state = _Gluing(n, k)
        left = RESTART_UNIT * _luby(run)

        def rec():
            nonlocal left
            d0 = state.pivot()
            if d0 is None:
                yield tuple(state.alpha)
                return
            cands = state.candidates(d0, all_fresh=True)
            rng.shuffle(cands)
            for b in cands:
                if not left:
                    return
                left -= 1
                undo = state.glue(d0, b)
                if undo is None:
                    continue
                yield from rec()
                state.unglue(undo)

        for alpha in rec():
            out = finish(alpha)
            if out is not None:
                return out
        if left:
            raise RuntimeError("random diagram generation failed")
