"""Frozen expected values for the count tables.

GAPSET_COUNTS is the number of gapsets per genus (OEIS A007323);
LARGE_GAPSET_COUNTS continues it through genus 24.
COUNTS_BY_KAPPA[g][k] is the number of genus-g gapsets whose maximum
consecutive gap is exactly k; row keys cover 1 <= k <= g (genus 0 has the
single entry k=0); rows 20-22 are copied from CELLS in
perfbench/expected.py.  DIAGONAL_TERMS[w] counts the pure 2w-sparse gapsets of
genus 3w (OEIS A348619); DIAGONAL_RATIOS / DIAGONAL_CUMULATIVE are the
published three-decimal renderings of the step and cumulative ratios;
the w = 10 term, 5248, is the one both the full count walk to genus 30 and
the pure-kappa walk give (checked under --run-slow).
GENUS_16_JSON is the (line count, sha256) of `gapsets enumerate --genus 16
--format json` stdout, the digest perfbench/expected.py records for it;
GENUS_16_TEXT and GENUS_16_CSV are the same for `--format text` and
`--format csv`, recorded from the CLI before the writes moved to blocks.
STREAM_DIGESTS holds (line count, sha256) for the larger `enumerate`
commands of the benchmark's stream workload, copied from perfbench/expected.py.
RECORDS_TO_GENUS_16_SHA256 freezes every record walk to genus 16.

Each table is marked, in a "confirmed by" comment above it, with the
algorithms whose output the tests compare with it and the genus each one
reaches (Tier-1, and under --run-slow where that goes further).  Brute
force is `tests/oracles.py`'s subset filter; the record walk is
`enumeration._iter_records` (full, or kappa-pruned where said); the count
walk is `enumeration._count_cells`.  Every value past genus 12 is
confirmed by the tree walks and the published sequences alone.
"""

# confirmed by: OEIS A007323 (every entry is the published value); brute
# force to genus 12; the record walk to genus 16 and at genus 18, 19 and
# 20; the count walk's row sums to genus 19
GAPSET_COUNTS = [
    1, 1, 2, 4, 7, 12, 23, 39, 67, 118,
    204, 343, 592, 1001, 1693, 2857, 4806, 8045, 13467, 22464,
]

# confirmed by: OEIS A007323; the count walk's row sums to genus 24, whose
# last two rows the record walk matches at genus 19-20 (23-24 under
# --run-slow)
LARGE_GAPSET_COUNTS = {20: 37396, 21: 62194, 22: 103246, 23: 170963, 24: 282828}

# confirmed by: brute force split by kappa_and_alpha to genus 12; the
# record walk to genus 16 and at genus 19 and 20; the count walk to genus
# 22; the kappa-pruned record walk on every 2g <= 3k family to genus 17;
# row sums OEIS A007323 to genus 22 (through GAPSET_COUNTS and
# LARGE_GAPSET_COUNTS)
_ROWS = {
    0: [1],
    1: [1],
    2: [1, 1],
    3: [1, 2, 1],
    4: [1, 3, 2, 1],
    5: [1, 5, 3, 2, 1],
    6: [1, 7, 7, 5, 2, 1],
    7: [1, 10, 12, 8, 5, 2, 1],
    8: [1, 15, 18, 17, 8, 5, 2, 1],
    9: [1, 20, 31, 28, 18, 12, 5, 2, 1],
    10: [1, 27, 51, 49, 34, 22, 12, 5, 2, 1],
    11: [1, 38, 78, 87, 57, 40, 22, 12, 5, 2, 1],
    12: [1, 51, 125, 147, 100, 76, 42, 30, 12, 5, 2, 1],
    13: [1, 70, 195, 237, 177, 134, 83, 54, 30, 12, 5, 2, 1],
    14: [1, 95, 297, 399, 309, 239, 150, 99, 54, 30, 12, 5, 2, 1],
    15: [1, 128, 457, 654, 530, 422, 259, 183, 103, 70, 30, 12, 5, 2, 1],
    16: [1, 172, 705, 1061, 902, 723, 452, 336, 199, 135, 70, 30, 12, 5, 2, 1],
    17: [1, 230, 1074, 1717, 1513, 1248, 811, 590, 363, 243, 135, 70, 30, 12, 5, 2, 1],
    18: [1, 309, 1621, 2777, 2535, 2148, 1411, 1037, 646, 444, 251, 167, 70, 30, 12, 5, 2, 1],
    19: [1, 413, 2448, 4464, 4232, 3636, 2434, 1810, 1124, 804, 480, 331, 167, 70, 30, 12, 5, 2, 1],
    20: [1, 554, 3688, 7139, 7027, 6142, 4192, 3145, 1975, 1444, 871, 600, 331, 167, 70, 30,
         12, 5, 2, 1],
    21: [1, 741, 5541, 11350, 11639, 10359, 7208, 5436, 3446, 2544, 1555, 1076, 616, 395, 167,
         70, 30, 12, 5, 2, 1],
    22: [1, 990, 8302, 18050, 19228, 17364, 12281, 9310, 5990, 4394, 2745, 1945, 1156, 808, 395,
         167, 70, 30, 12, 5, 2, 1],
}

COUNTS_BY_KAPPA = {
    g: {(0 if g == 0 else k + 1): v for k, v in enumerate(row)}
    for g, row in _ROWS.items()
}

# confirmed by: OEIS A348619; the kappa-pruned record walk to w = 7
# (genus 21; w = 10, genus 30, under --run-slow); the count walk to
# w = 7 (w = 10 under --run-slow); the full record walk filtered by kappa
# to w = 6; brute force to w = 4 (genus 12, through COUNTS_BY_KAPPA); and
# the region sums t(0) + ... + t(g // 3) to genus 17 (30 under --run-slow)
DIAGONAL_TERMS = [1, 2, 5, 12, 30, 70, 167, 395, 936, 2212, 5248]

# confirmed by: the published three-decimal renderings; the exact ratios
# of the kappa-pruned walk's terms to w = 6 (w = 10 under --run-slow)
DIAGONAL_RATIOS = [
    "-", "2.000", "2.500", "2.400", "2.500",
    "2.333", "2.386", "2.365", "2.370", "2.363", "2.373",
]

DIAGONAL_CUMULATIVE = [
    "1", "1.5", "1.6", "1.667", "1.667",
    "1.714", "1.719", "1.727", "1.729", "1.731", "1.730",
]

# confirmed by: the CLI alone at genus 16 (the JSON digest is also the one
# perfbench/expected.py records); the `Gapset` path (enumerate_gapsets,
# invariants and json.dumps) gives the same bytes in every format to genus
# 12
GENUS_16_JSON = (4806, "aca4eb0872c5e17c7c4b3bcd51d8599758d59396a48f63f78b3561444d127783")
GENUS_16_TEXT = (4806, "521329049ceb73d73b864f2d9950b1ae3385d3f1c1f324fc86f30909c36cc8aa")
GENUS_16_CSV = (4807, "8426a41c390b4e32f8f5d21908ec0cd08e4dda8611e9a04d76babbf2858e85bd")

# confirmed by: the CLI alone (the genus-21 listing under --run-slow); the
# kappa-pruned walk behind the genus-22 commands yields the full walk's
# records of that kappa, K = 11..13, under --run-slow
STREAM_DIGESTS = {
    ("enumerate", "--genus", "21", "--format", "json"):
        (62194, "992960d09891b1771213ceb38b996414020b7f39b82887bc4e99327ccd85fd16"),
    ("enumerate", "--genus", "22", "--kappa", "11", "--pure", "--format", "csv"):
        (2746, "53ff1654e2e95675ddd7bd66908a3e879ada599e82225a0fe48f0f284a5c44e9"),
    ("enumerate", "--genus", "22", "--kappa", "12", "--pure", "--format", "csv"):
        (1946, "dd5fa91cb7473167b9467f6d2923bf0b1aee9ae6df67b4a503df338108271d5d"),
    ("enumerate", "--genus", "22", "--kappa", "13", "--pure", "--format", "csv"):
        (1157, "f0a04c69d55b3cbbeb6ab6a748f8edf4dacefd1cdd9ae56cb54c9066e1d887a8"),
}

# sha256 over repr of every record, in order, of `_iter_records(g, pieces,
# K)` for g <= 16, K in (None, 0..g + 1) and pieces None or "," + str(v),
# taken from the walk that pushed every node.  Confirmed by: that earlier
# walk; the records' elements equal brute force's to genus 12, and their
# m, conductor, kappa and alpha equal `invariants` scans to genus 17
RECORDS_TO_GENUS_16_SHA256 = "f5213d748ff00f84039efff5d7991bf0b662caa5c6f870f120d9fa64822fbcc1"
