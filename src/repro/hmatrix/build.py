"""H-matrix construction from a (partially matrix-free) kernel operator.

Admissible blocks are compressed with partially pivoted ACA driven by the
operator's element extraction — only a few rows and columns of each block
are ever evaluated, which is what makes the H construction quasi-linear and
is the reason the paper uses it to accelerate the HSS sampling stage.
Inadmissible leaf blocks are extracted densely.

The operator is a symmetric kernel matrix, and the block cluster tree is
symmetric too (both admissibility criteria and the subdivision are
symmetric in ``(s, t)``), so every off-diagonal leaf ``(s, t)`` has a
partner leaf ``(t, s)`` of the same kind.  Only the leaves whose row
cluster starts at or before their column cluster in the permuted order
are **computed**; every other leaf is a **mirror** of its partner: a
low-rank mirror is ``LowRank(partner.V, partner.U)`` and a dense one
``partner.dense.T``, sharing the partner's arrays.  The block list and
the matvec sweep cover every leaf as before.

The computed admissible leaves are not compressed one by one: consecutive
leaves are packed into **waves** and every wave is one call of the
wavefront ACA (:func:`repro.lowrank.aca_blocks`), which advances all its
blocks together with a few array operations per cross step.  A wave holds
at most :data:`WAVE_BUDGET` rows plus columns (a lone larger block gets a
wave of its own), which bounds the working set; the waves are a pure
function of the block list.  The factors of a block do not depend on its
wave mates.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..clustering.tree import ClusterTree
from ..config import HMatrixOptions
from ..lowrank.aca import ACAResult, aca_blocks
from ..obs import trace
from ..utils.timing import TimingLog
from ..utils.validation import check_array_2d
from .bbox import cluster_geometries
from .block_tree import BlockClusterTree
from .hmatrix import HBlock, HMatrix

#: Upper bound on the summed rows + columns of the blocks of one wave.  An
#: unbounded wave doubled the peak memory of a fit (its factor buffers and
#: per-step temporaries scale with this sum times the rank); a few thousand
#: is already past the point where the interpreter overhead per step stops
#: mattering.  A constant, not an option: the wave geometry decides nothing
#: about the result.
WAVE_BUDGET = 8192


def _pack_waves(block_ids: List[int], sizes: List[int]) -> List[List[int]]:
    """Split ``block_ids`` into consecutive runs of summed size within the budget."""
    waves: List[List[int]] = []
    load = 0
    for block_id, size in zip(block_ids, sizes):
        if not waves or load + size > WAVE_BUDGET:
            waves.append([])
            load = 0
        waves[-1].append(block_id)
        load += size
    return waves


def build_hmatrix(
    operator,
    X_permuted: np.ndarray,
    tree: ClusterTree,
    options: Optional[HMatrixOptions] = None,
    timing: Optional[TimingLog] = None,
    block_tree: Optional[BlockClusterTree] = None,
) -> HMatrix:
    """Compress the kernel matrix of ``X_permuted`` into an H matrix.

    Parameters
    ----------
    operator:
        Partially matrix-free operator representing a **symmetric** kernel
        matrix **in the permuted ordering** of ``tree``: ``block(rows,
        cols)`` for the dense leaves, ``row_segments`` / ``col_segments``
        and ``screen_rows`` (see :class:`repro.kernels.KernelOperator`)
        for the ACA of the admissible ones.  Only the leaves on and above
        the diagonal are evaluated; the others mirror them.
    X_permuted:
        The reordered data points (used only for the geometric admissibility
        condition).
    tree:
        Cluster tree shared with the HSS construction.
    options:
        :class:`repro.config.HMatrixOptions`.
    timing:
        Optional log; an ``h_construction`` phase is added.  The build also
        runs under an ``hmatrix.build`` trace span whose attributes record
        ``admissible_blocks`` and ``dense_blocks`` (leaves of the
        partition, mirrors included), ``mirrored_blocks`` (leaves that
        mirror their partner), and over the computed admissible leaves
        ``waves``, ``iterations`` (the largest ``rows_sampled`` of a
        wave's blocks, summed over the waves: rows sampled per wave, not
        wavefront steps, since the rank-0 row scan skips many rows in one
        step), ``zero_blocks`` (blocks that came out rank 0),
        ``rows_scanned`` (rows the rank-0 row scan screened, see
        :mod:`repro.lowrank.aca`) and ``max_rank``.
    block_tree:
        Optional :class:`repro.hmatrix.BlockClusterTree` of an earlier
        build over the same ``X_permuted``.  The admissibility partition
        is purely geometric (kernel-independent), so a bandwidth change
        reuses it and skips the geometry pass — only the block numerics
        are redone.  It is reused only when its recorded ``tree`` is this
        ``tree`` and its ``eta`` / ``leaf_size`` / ``criterion`` equal the
        options'; otherwise the partition is rebuilt.

    Returns
    -------
    HMatrix
    """
    opts = options if options is not None else HMatrixOptions()
    X_permuted = check_array_2d(X_permuted, "X_permuted")
    log = timing if timing is not None else TimingLog()
    with trace.span("hmatrix.build") as span, log.phase("h_construction"):
        if (block_tree is not None and block_tree.tree is tree
                and block_tree.eta == opts.admissibility_eta
                and block_tree.leaf_size == opts.leaf_size
                and block_tree.criterion == opts.admissibility):
            btree = block_tree
        else:
            geometries = cluster_geometries(X_permuted, tree)
            btree = BlockClusterTree(tree, geometries,
                                     eta=opts.admissibility_eta,
                                     leaf_size=opts.leaf_size,
                                     criterion=opts.admissibility)
        leaves = btree.leaves()
        ranges = {i: btree.block_ranges(i) for i in leaves}
        partners = btree.mirror_partners()
        computed = [i for i in leaves if i not in partners]
        admissible = [i for i in computed if btree.blocks[i].admissible]
        dense = [i for i in computed if not btree.blocks[i].admissible]

        def extract(i: int) -> HBlock:
            rows, cols = ranges[i]
            values = operator.block(
                np.arange(rows.start, rows.stop, dtype=np.intp),
                np.arange(cols.start, cols.stop, dtype=np.intp))
            return HBlock(i, rows, cols,
                          dense=np.asarray(values, dtype=np.float64))

        def compress(wave: List[int]) -> List[ACAResult]:
            return aca_blocks(
                operator,
                [(ranges[i][0].start, ranges[i][0].stop) for i in wave],
                [(ranges[i][1].start, ranges[i][1].stop) for i in wave],
                rel_tol=opts.rel_tol, max_rank=opts.max_rank)

        waves = _pack_waves(admissible, [
            rows.stop - rows.start + cols.stop - cols.start
            for rows, cols in (ranges[i] for i in admissible)])
        by_id = {blk.block_id: blk for blk in map(extract, dense)}
        compressed = [compress(wave) for wave in waves]
        zero_blocks = rows_scanned = 0
        for wave, results in zip(waves, compressed):
            for i, result in zip(wave, results):
                by_id[i] = HBlock(i, *ranges[i], lowrank=result.lowrank)
                zero_blocks += result.rank == 0
                rows_scanned += result.rows_scanned
        for i, j in partners.items():
            by_id[i] = by_id[j].mirror(i)
        span.attributes.update(
            admissible_blocks=len(btree.admissible_leaves()),
            dense_blocks=len(btree.dense_leaves()),
            mirrored_blocks=len(partners), waves=len(waves),
            iterations=sum(max(r.rows_sampled for r in results)
                           for results in compressed),
            zero_blocks=zero_blocks, rows_scanned=rows_scanned,
            max_rank=max((r.rank for results in compressed
                          for r in results), default=0))
    return HMatrix(btree, [by_id[i] for i in leaves])
