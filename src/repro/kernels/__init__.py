"""``repro.kernels`` — packed CSR similarity / prediction kernels.

The layout-first compute layer: :class:`PackedRatings` mirrors a
:class:`~repro.data.ratings.RatingMatrix` as integer-interned,
contiguous CSR arrays (sorted rows, precomputed means and centered
deviations, a packed inverted index), and the kernel functions run the
paper's hot equations over that layout —

* :func:`pearson_one_vs_many` / :func:`pearson_pair` — Equation 2 via
  sorted-merge intersection over int ids;
* :func:`overlap_counts` — candidate co-rating counts through the
  packed inverted index;
* :func:`predict_row_packed` / :func:`predict_topk_packed` — Equation 1
  over a user's unrated row (full, and bounded-heap top-k) for the
  recommend paths;
* :func:`items_unrated_by_all_packed` /
  :func:`candidate_ints_unrated_by_all` — the group candidate scan
  (Definition 2) as a set subtract in intern space;
* :meth:`PackedRatings.save` / :meth:`PackedRatings.open_mmap` /
  :func:`attach_spill` — the mmap'd on-disk spill of the CSR arrays
  (:mod:`repro.kernels.spill`), letting pool workers bootstrap by
  opening files instead of receiving a full state ship.

These kernels are the only compute path of the library.  Everything is
pure stdlib and **bit-identical** to the dict-of-dicts Pearson kept in
:mod:`repro.kernels.oracle` (same summation order within every pair),
which only tests and benchmarks import.
"""

from __future__ import annotations

from .packed import PackedRatings, attach_spill, get_packed
from .pearson import overlap_counts, pearson_one_vs_many, pearson_pair
from .relevance import predict_row_packed, predict_topk_packed
from .scan import candidate_ints_unrated_by_all, items_unrated_by_all_packed
from .spill import SPILL_MANIFEST_NAME, SpillError

__all__ = [
    "PackedRatings",
    "SPILL_MANIFEST_NAME",
    "SpillError",
    "attach_spill",
    "candidate_ints_unrated_by_all",
    "get_packed",
    "items_unrated_by_all_packed",
    "overlap_counts",
    "pearson_one_vs_many",
    "pearson_pair",
    "predict_row_packed",
    "predict_topk_packed",
]
