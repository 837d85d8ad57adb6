"""Exhaustive enumeration of gapsets by genus.

The search walks the tree whose root is the empty gapset and whose edges
append one element larger than the current maximum.  A value x can be
appended to G exactly when every split x = u + v (u, v >= 1) has u in G or
v in G; in semigroup terms x is an effective generator beyond the Frobenius
number.  Every gapset of genus g has each of its sorted prefixes as a
gapset, so level g of the tree holds the genus-g gapsets exactly once, and
a depth-first walk with children in increasing order emits them in
lexicographic order on element sequences.

Membership bookkeeping uses two bit masks over [1, 2g+1]: the complement
of the node (the positive semigroup elements) and its mirror image, so the
split check for a candidate x is a single shift-and-AND.  A third mask holds
the node's children, and each child inherits it from its parent, as in
Fromentin & Hivert, Exploring the tree of numerical semigroups (Math. Comp.
85, 2016), where each node keeps and passes on its generators.  The root's
children are {1}.  The children of a child x of G (at level j) are the
children of G above x, plus each y in (x, 2j + 3] with y - x in G's
semigroup that passes the split test on G + {x}.  This is exact: appending
x turns no gap back into a semigroup element, so every child of G above x
stays a child, and a y that is a child of G + {x} but not of G (every y
past 2j + 1 is not) has a split y = u + v missing G, which must use x, so
y - x is not in G.  So a new node runs the split test only on the new
candidates, never on every value in (x, 2j + 3].

Listings come from one record walk (`_iter_records`): each stack entry
carries its node's label, level, last element, multiplicity (once a value
is skipped), running maximum gap and the index of its last widest pair, so
every leaf is yielded as a kernel record (label, last, multiplicity, kappa,
alpha) with no Gapset built and no second pass over its elements.  A label
grows by one table entry per edge: by default the entry for x is (x,), so
the label is the elements tuple; the CLI passes sep + str(x), so the label
is already the gapset's text.  Like the count walk below, it pushes no
childless node; a node two levels above the leaves finishes its children
in place, yielding their children, the leaves, as it finds them.
`enumerate_gapsets` wraps the same walk's elements in Gapset values.
Given a maximum gap K, the walk yields only the gapsets with maximum gap
exactly K, which `enumerate --pure` lists and `tally` counts for the
diagonal terms t(w) (genus 3w, K = 2w), and visits only the nodes that
can still end there.  It starts at the chain [1..K-1], since every
gapset has K <= m; it drops a child x with x - last > K; and while the
running maximum gap stays below K it drops x > g - K + j + 1 (x
the element at level j + 1, g the genus).  That reach bound holds because
a later pair (e_i, e_{i+1}) with j + 1 <= i <= g - 1 must make the gap K:
each prefix is a gapset, so e_{i+1} <= 2i + 1, and e_i >= x + i - j - 1,
so K <= i + j + 2 - x <= g + j + 1 - x.  The slack g + j + 1 - K - x only
shrinks along a path, as x grows by at least 1 per level.

The pruned walk also makes a sumset reach test, which uses only that a
semigroup is closed under addition.  Lemma: take a child x whose running
maximum gap is below K, and S = [1, x] minus the child's elements.  If a
descendant F of genus g has maximum gap K, then F has a consecutive pair
(a, a + K) with a >= x, a + K <= 2g - 1, a + K not in S + S, and a not in
S + S when a > x.  Proof: every pair of F up to x is the child's and
narrower than K, so the pair of width K starts at some a >= x; a + K is
an element of F, so at most 2g - 1, as F's complement holds every value
from 2g on; S is outside F, so S + S lies in F's semigroup, which holds no
element of F, and a + K > x and any a > x are elements of F.  So the walk
drops the child when no such a exists.  At the last inner level F is the
child plus one element, so a = x and the test asks only whether x + K is
in S + S.  There it is only a shortcut: x + K = u + v with u, v in S fails
the split test on the child, which would drop the same leaf, but the
shortcut skips the child's split tests: without it the walks given K at
genus 22 (K = 11..13) ran 8-14 % slower, and those of the diagonal terms
to w = 10 about 23 % slower.  The test does not replace the reach bound,
which reads element indices, not sums.

Aggregates come from one count-only walk (`_count_cells`), which
`tally.build_count_grid` reads: one pass to the largest genus counts every
smaller genus by maximum gap, building no tuples.  It pushes no childless
node and no node of the last four levels: a node four levels above the
leaves finishes each child's subtree in place, in three nested loops.  The
innermost reads the children above x off the bits of the children mask
still left, and counts x's own children, the leaves, with no loop: every
leaf y <= x + max_gap falls in x's cell, so that cell gets a popcount of
x's children mask.  No walk imports `core`: only the functions that
build or read `Gapset` values import it, when called.

Every walk checks its genus against one ceiling, `GENUS_CEILING`.  No
command and no other module reaches the disk cache (`cache_path`,
`cache_store`, `cache_load`, the `CacheError` classes) or the `Gapset`
filters (`filter_gapsets`, `filter_pure_sparse`), and the package namespace
does not export them.  They are kept, cut to the calls the benchmark
makes, only until the benchmark stops timing them as layers (ROADMAP
item 5a), and then go (item 1): the cache is one checksummed file per
genus, written whole and moved into place; the filters keep a stream of
`Gapset` values whose maximum gap is exactly kappa.
"""

from __future__ import annotations

import os
import tempfile
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, Union

if TYPE_CHECKING:
    from .core import Elements, Gapset

    # a node's label: its elements tuple, or their text (see `_iter_records`)
    Label = Union[Elements, str]
    # (label, last element, multiplicity, kappa, alpha) of one gapset
    KernelRecord = tuple[Label, int, int, int, Optional[int]]

GENUS_CEILING = 30

CACHE_FILE_TEMPLATE = "gapsets-g{genus}.txt"


class ResourceLimitError(RuntimeError):
    """Requested genus exceeds the search ceiling."""


class CacheError(RuntimeError):
    pass


class MissingCacheError(CacheError):
    """No cache file exists for the requested genus."""


class CorruptCacheError(CacheError):
    """Cache file failed its checksum, header or shape verification."""


def _check_genus(genus: int) -> None:
    if genus < 0:
        raise ValueError("genus must be >= 0")
    if genus > GENUS_CEILING:
        raise ResourceLimitError(f"genus {genus} exceeds the ceiling {GENUS_CEILING}")


def _iter_records(
    genus: int,
    pieces: Optional[Sequence[Label]] = None,
    kappa: Optional[int] = None,
) -> Iterator[KernelRecord]:
    """Depth-first walk yielding the kernel records (label, last, m, kappa,
    alpha) of the genus-`genus` gapsets in lexicographic order; given
    `kappa` (K), only those with maximum gap exactly K.

    The walk starts at the chain [1..j]: j = K - 1 given K, and j = 0 (the
    empty gapset) otherwise.  Every split x = u + v of an x <= 2j + 1 has
    its smaller part u <= j, in the chain, so the chain's children are
    exactly j + 1..2j + 1 and need no split test.  Its stack entry needs no
    scan either: m is 0 (no value is skipped yet), the running maximum gap
    is 1 (0 for the empty chain) and the last widest pair is (j - 1, j) at
    index j - 1 (index 0 below j = 2; see m below).

    A node's label is its parent's label + pieces[x], x the element it
    appends.  The default table pieces[v] = (v,) makes the label the elements
    tuple; a table of strings sep + str(v) (indices 0..2 * genus + 1) makes it
    the elements' text, each element preceded by sep, so a listing converts
    no element to text twice (with pieces[1] = "1" the label is the joined
    text, as 1 is every non-empty gapset's first element).  `last` is the
    largest element (0 for the empty gapset), which a text label cannot
    give back.

    Masks are plain ints over [1, cap] with cap = 2 * genus + 1: bit i of
    sm tracks membership of i in the node's semigroup, sr mirrors sm at
    position cap - i (which turns the split test for y into one AND), and ch
    holds the node's children.  Stack entries are (label, level, last, m,
    kappa, alpha, sm, sr, ch, sums), sums for the sumset reach test below.  A
    child inherits its children from its parent (the module docstring shows
    why this is exact): the chain's ch is the closed form above, and a
    child's ch is its parent's children above x plus the candidates
    (sm << x) & window & ~rest that pass the split test on the child's
    masks.  m stays 0 until the first skipped value, and the empty
    gapset's child 1 counts as a gap of 1 - 0 = 1 at index 0, which never
    survives into a longer gapset; genus 1, like the one gapset of genus
    K = genus, is yielded before the walk.

    A node pushes only the children that have children of their own.  A
    node at level genus - 2 pushes none: as `_count_cells` does at that
    level, it walks `visit` lowest-first, so the bits still left are the
    children above x (on the full walk; given K, ch above x), split-tests
    only x's new candidates, building x's masks only when there are any,
    and yields x's children, the leaves, upwards, looking up x's label
    piece only when x has one.

    With `kappa` set, a node visits only the children that can still end
    with maximum gap K.  Then the walk starts at the chain [1..K-1], whose
    children are K..2K-1; a child x > last + K is dropped; and while the
    running maximum gap is below K a node keeps only last + K at the last
    level, and at an inner level also the x <= genus - K + j + 1 (the reach
    bound of the module docstring).  These cuts are masked into `visit`
    once per popped node.  A node walks `visit`, not ch, so a child still
    inherits every child of ch above it, visited or not: a value cut for
    its parent can be a child of its child.  At the last inner level a
    child's leaves are cut to those that give gap K, with one mask.  On
    the full walk (K = 0) all of this sits behind one `if K` per popped
    node and per child.

    The sumset reach test (the lemma of the module docstring) drops a child
    x whose running maximum gap stays below K before its children are
    computed.  Each stack entry carries sums = S + S as a mask, S the values
    below the node's last element outside the node; the chain root has no
    such value, so sums = 0.  A child x of a node with last element l adds
    D = [l + 1, x - 1] to S, so the child's sumset is sums | (T + D) with T
    the child's S (T + D holds S + D and D + D).  D is empty when x = l + 1;
    otherwise T + D is T shifted by l + 1 and smeared over |D| bits by
    doubling.  With free the bits above x outside the child's sumset, the
    child is dropped when ((A << K) & free & below[2g]) == 0 for
    A = (1 << x) | (free & below[2g - K]), the starts a the lemma allows.
    Every child tested has x + K <= 2g - 1 (the reach bound gives
    x <= g - K + j + 1 under a parent at level j <= g - 2), so a = x
    passes unless bit x + K of the sumset is set, and only then is the test
    made.  A child whose running maximum gap reaches K pushes its parent's
    sums, which no descendant reads.  At the last inner level the one leaf
    left is x + K and no sumset is built: the node drops from `visit`, in
    one mask, every x < last + K with bit x + K of sums set, then each x
    with x + K in T + D, that is when T has a bit in [K + 1, K + |D|].
    That is only a shortcut: the split test on x + K would drop the same
    leaf (the module docstring says why it stays).

    No gapset has kappa above its genus, and only the empty one has kappa
    0.  A negative genus raises ValueError; the ceiling is the caller's to
    check.
    """
    if genus < 0:
        raise ValueError("genus must be >= 0")
    j = 0
    if kappa is not None:
        if not (0 < kappa <= genus or kappa == genus == 0):
            return
        j = max(kappa - 1, 0)
    cap = 2 * genus + 1
    if pieces is None:
        pieces = [(v,) for v in range(cap + 1)]
    below = [(1 << i) - 1 for i in range(3 * genus + 3)]
    rclear = [~(1 << (cap - v)) for v in range(cap + 1)]
    above = [~b for b in below[1:]]  # above[x]: the bits above x
    sm = below[cap + 1] ^ 1  # bits 1..cap
    sr = below[cap]  # bits cap-1..0, i.e. cap - i for i in 1..cap
    label = pieces[0][:0]  # () or "", the empty label of the table's type
    for v in range(1, j + 1):
        sm ^= 1 << v
        sr &= rclear[v]
        label += pieces[v]
    if genus == 0:
        yield label, 0, 1, 0, None
        return
    if j + 1 == genus:  # K = genus (or genus 1): the one gapset [1..j, 2j + 1]
        x = 2 * j + 1
        yield label + pieces[x], x, j + 1 if j else 2, x - j, j or None
        return
    ch = below[2 * j + 2] ^ below[j + 1]  # the chain's children j + 1..2j + 1
    stack = [(label, j, j, 0, min(j, 1), j - 1 if j > 1 else 0, sm, sr, ch, 0)]
    K = kappa or 0
    within = below[2 * genus]  # the values below 2g: a gapset's largest is 2g - 1
    starts = below[2 * genus - K]  # the a with a + K <= 2g - 1
    lj = genus - 1  # the level of the leaves' parents
    while stack:
        label, j, last, m, k, a, sm, sr, ch, sums = stack.pop()
        window = below[2 * j + 4]
        visit = ch
        if K:  # the top cut, and below gap K the reach bound
            top = last + K
            visit &= below[top + 1]
            if k < K:
                visit &= below[genus - K + j + 2] | 1 << top
                if j + 2 == genus:  # the sumset shortcut: x + K in S + S
                    visit &= ~(sums >> K) | 1 << top
        if j + 2 == genus:  # finish the last two levels in place
            while visit:
                b = visit & -visit
                visit ^= b  # on the full walk, now the children above x
                x = b.bit_length() - 1
                d = x - last
                k2 = d if d >= k else k
                if K:
                    if k2 < K:
                        # the one leaf left would be x + K: is it in T + D?
                        if (sm & below[x]) >> K + 1 & below[d - 1]:
                            continue
                        cut = 1 << x + K
                    else:
                        cut = below[x + K + 1]
                    kids = ch & above[x] & cut
                    new = (sm << x) & window & cut & ~kids
                else:
                    kids = visit
                    new = (sm << x) & window & ~visit
                if new:
                    sm2 = sm ^ b
                    sr2 = sr & rclear[x]
                    while new:
                        yb = new & -new
                        new ^= yb
                        if sm2 & (sr2 >> (cap + 1 - yb.bit_length())) == 0:
                            kids |= yb
                if kids:
                    label2 = label + pieces[x]
                    m2 = m or (lj if d > 1 else 0)
                    a2 = j if d >= k else a
                    while kids:
                        yb = kids & -kids
                        kids ^= yb
                        y = yb.bit_length() - 1
                        d = y - x
                        yield (
                            label2 + pieces[y],
                            y,
                            m2 or (genus if d > 1 else genus + 1),
                            d if d >= k2 else k2,
                            lj if d >= k2 else a2,
                        )
            continue
        while visit:
            x = visit.bit_length() - 1
            b = 1 << x
            visit ^= b
            d = x - last
            k2 = d if d >= k else k
            sm2 = sm ^ b
            sums2 = sums
            if K and k2 < K:  # the sumset reach test (see the docstring)
                if d > 1:  # add T + D, D = [last + 1, x - 1]
                    u = (sm2 & below[x]) << last + 1
                    w = 1
                    while w + w < d:
                        u |= u << w
                        w += w
                    sums2 |= u | u << d - 1 - w
                if sums2 >> x + K & 1:
                    free = ~sums2 & above[x]
                    if ((b | free & starts) << K) & free & within == 0:
                        continue
            rest = ch & above[x]  # the children above x
            sr2 = sr & rclear[x]
            kids = rest
            new = (sm << x) & window & ~rest
            while new:
                yb = new & -new
                new ^= yb
                if sm2 & (sr2 >> (cap + 1 - yb.bit_length())) == 0:
                    kids |= yb
            if kids:
                stack.append((
                    label + pieces[x],
                    j + 1,
                    x,
                    m or (j + 1 if d > 1 else 0),
                    k2,
                    j if d >= k else a,
                    sm2,
                    sr2,
                    kids,
                    sums2,
                ))


def _count_cells(max_genus: int) -> list[list[int]]:
    """cells[g][k] = #{genus-g gapsets with maximum gap k}, from one walk.

    Stack entries are (level, last, max_gap, sm, sr, ch), with the masks,
    split test and inherited children masks of `_iter_records`.  A popped
    node counts each child in its cell as it finds it and pushes only the
    children at level max_genus - 4 or above that have children of their
    own.  A child x at level max_genus - 3 has its subtree finished in
    place, with one nested loop per level instead of stack entries: x's
    children are walked highest-first, each inheriting the children above
    it from the `rest1` mask as the popped node's children do from `rest`;
    their children are walked lowest-first, so the children above x2 are
    the bits still left, and only x2's new candidates are split-tested,
    building x2's masks only when there are any.  x2's own children (the
    leaves) are added to the last row without a visit: every one at most
    x2 + max_gap falls in x2's cell max_gap, which gets the popcount of
    those, and only the wider ones go one by one to cell y - x2.  Root
    child 1 gets max_gap 1 - 0 = 1; a genus below 4, whose root is past
    level max_genus - 4, returns its frozen rows before the walk.  A
    negative genus raises ValueError.
    """
    if max_genus < 0:
        raise ValueError("genus must be >= 0")
    if max_genus < 4:
        return [[1], [0, 1], [0, 1, 1], [0, 1, 2, 1]][: max_genus + 1]
    cells = [[0] * (g + 1) for g in range(max_genus + 1)]
    cells[0][0] = 1
    cap = 2 * max_genus + 1
    below = [(1 << i) - 1 for i in range(3 * max_genus + 2)]
    rclear = [~(1 << (cap - v)) for v in range(cap + 1)]
    row1, row2, leaves = cells[max_genus - 2 :]
    window1 = below[2 * max_genus - 2]  # the candidates for x1's children
    window2 = below[2 * max_genus]  # and for x2's, the leaves
    stack = [(0, 0, 0, below[cap + 1] ^ 1, below[cap], 2)]
    while stack:
        j, last, mg, sm, sr, ch = stack.pop()
        row = cells[j + 1]
        window = below[2 * j + 4]
        rest = 0  # the children above x
        while ch:
            x = ch.bit_length() - 1
            b = 1 << x
            ch ^= b
            d = x - last
            k = d if d > mg else mg
            row[k] += 1
            sm2 = sm ^ b
            sr2 = sr & rclear[x]
            kids = rest
            new = (sm << x) & window & ~rest
            while new:
                yb = new & -new
                new ^= yb
                if sm2 & (sr2 >> (cap + 1 - yb.bit_length())) == 0:
                    kids |= yb
            rest |= b
            if j + 4 < max_genus:
                if kids:
                    stack.append((j + 1, x, k, sm2, sr2, kids))
                continue
            rest1 = 0  # finish x's subtree in place
            while kids:
                x1 = kids.bit_length() - 1
                b1 = 1 << x1
                kids ^= b1
                d = x1 - x
                k1 = d if d > k else k
                row1[k1] += 1
                sm3 = sm2 ^ b1
                sr3 = sr2 & rclear[x1]
                kids1 = rest1
                new = (sm2 << x1) & window1 & ~rest1
                while new:
                    yb = new & -new
                    new ^= yb
                    if sm3 & (sr3 >> (cap + 1 - yb.bit_length())) == 0:
                        kids1 |= yb
                rest1 |= b1
                while kids1:
                    b2 = kids1 & -kids1
                    kids1 ^= b2  # now the children above x2
                    x2 = b2.bit_length() - 1
                    d = x2 - x1
                    k2 = d if d > k1 else k1
                    row2[k2] += 1
                    kids2 = kids1
                    new = (sm3 << x2) & window2 & ~kids1
                    if new:
                        sm4 = sm3 ^ b2
                        sr4 = sr3 & rclear[x2]
                        while new:
                            yb = new & -new
                            new ^= yb
                            if sm4 & (sr4 >> (cap + 1 - yb.bit_length())) == 0:
                                kids2 |= yb
                    if kids2:
                        narrow = kids2 & below[x2 + k2 + 1]
                        leaves[k2] += narrow.bit_count()
                        wide = (kids2 ^ narrow) >> x2  # bit d: the child x2 + d
                        while wide:
                            yb = wide & -wide
                            wide ^= yb
                            leaves[yb.bit_length() - 1] += 1
    return cells


def enumerate_gapsets(genus: int, *, workers: int = 1) -> Iterator[Gapset]:
    """Emit every gapset of the given genus, once, in lexicographic order.

    `workers` is not read: one process walks the tree.  The keyword stays
    only because the benchmark's pool layer still calls
    `enumerate_gapsets(genus, workers=2)`, until ROADMAP item 5a retires
    that layer.
    """
    from .core import Gapset

    _check_genus(genus)
    for rec in _iter_records(genus):
        yield Gapset(rec[0])


def filter_gapsets(stream: Iterable[Gapset], *, kappa: int, pure: bool) -> Iterator[Gapset]:
    """`filter_pure_sparse` in the benchmark's filter-layer call shape;
    only `pure=True` is served (see the module docstring)."""
    if not pure:
        raise ValueError("only the pure filter (maximum gap exactly kappa) is kept")
    return filter_pure_sparse(stream, kappa)


def filter_pure_sparse(stream: Iterable[Gapset], kappa: int) -> Iterator[Gapset]:
    """Keep exactly the gapsets whose maximum consecutive gap equals kappa,
    with one `kappa_and_alpha` scan per gapset."""
    from .core import kappa_and_alpha

    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    return (g for g in stream if kappa_and_alpha(g)[0] == kappa)


def cache_path(cache_dir: str | Path, genus: int) -> Path:
    return Path(cache_dir) / CACHE_FILE_TEMPLATE.format(genus=genus)


def cache_store(genus: int, gapsets: Iterable[Gapset], cache_dir: str | Path) -> Path:
    """Write a cache file: genus/count header, one gapset per line, crc32 trailer.

    The whole file is built in memory (its one caller stores a list it
    already holds, and `cache_load` reads the whole file back), written to
    a temporary file in the cache directory and moved onto the target with
    `os.replace`, so a reader sees the old file or the new one, never part
    of one; a store that fails leaves the old file and no temporary file.
    The checksum covers every byte before the trailer line.
    """
    lines = [",".join(map(str, g.elements)) + "\n" for g in gapsets]
    body = f"genus={genus}\ncount={len(lines)}\n{''.join(lines)}".encode("ascii")
    data = body + f"crc32={zlib.crc32(body):08x}\n".encode("ascii")
    directory = Path(cache_dir)
    directory.mkdir(parents=True, exist_ok=True)
    target = cache_path(directory, genus)
    out = tempfile.NamedTemporaryFile(dir=directory, suffix=".tmp", delete=False)
    try:
        with out:
            out.write(data)
        os.replace(out.name, target)
    except BaseException:
        os.unlink(out.name)
        raise
    return target


def cache_load(genus: int, cache_dir: str | Path) -> list[Gapset]:
    """Load a cache file, verifying checksum, header and shape before returning."""
    from .core import Gapset

    path = cache_path(cache_dir, genus)
    if not path.exists():
        raise MissingCacheError(f"no cache for genus {genus} at {path}")
    raw = path.read_bytes()
    head, _, trailer = raw.rstrip(b"\n").rpartition(b"\n")
    if not trailer.startswith(b"crc32="):
        raise CorruptCacheError(f"{path}: missing crc32 trailer")
    body = raw[: len(head) + 1]
    expected = trailer[len(b"crc32=") :].decode("ascii", "replace")
    actual = f"{zlib.crc32(body) & 0xFFFFFFFF:08x}"
    if expected != actual:
        raise CorruptCacheError(f"{path}: crc32 mismatch ({expected} != {actual})")
    lines = body.decode("ascii").splitlines()
    if len(lines) < 2 or not lines[0].startswith("genus=") or not lines[1].startswith("count="):
        raise CorruptCacheError(f"{path}: malformed header")
    file_genus = int(lines[0][len("genus=") :])
    count = int(lines[1][len("count=") :])
    if file_genus != genus:
        raise CorruptCacheError(f"{path}: header genus {file_genus} != {genus}")
    records = lines[2:]
    if len(records) != count:
        raise CorruptCacheError(f"{path}: count header says {count}, found {len(records)}")
    out = []
    for line in records:
        elems = tuple(int(tok) for tok in line.split(",")) if line else ()
        if len(elems) != genus:
            raise CorruptCacheError(f"{path}: record of genus {len(elems)} in genus-{genus} file")
        out.append(Gapset(elems))
    return out

