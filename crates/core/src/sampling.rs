//! Mini-batch sampled training: distributed execution of the
//! [`dgcl_graph::sample`] block chain.
//!
//! Full-batch training moves every remote embedding every epoch; sampled
//! training (DistDGL, PAPERS.md) moves only the rows a batch's fanout-
//! bounded blocks actually reference. The pieces here:
//!
//! * [`SamplingConfig`] — batch size, per-layer fanouts, seed.
//! * [`GatherPlan`] + row exchange executors — the batch-sized analogue
//!   of the graph allgather: every rank contributes the block rows it
//!   owns and assembles the full per-batch source matrix (forward), or
//!   reduces per-row gradient contributions back to the owners
//!   (backward). Both run over the raw fabric with op-aligned keys, so
//!   they compose with the poison protocol and the fault injector.
//! * The **block path** rank body called by the trainer (finite
//!   fanouts, compact per-batch compute; each batch samples its blocks
//!   and fetches its input rows inline, then computes). The **exact
//!   path** (all fanouts ∞) is no separate body: it runs the trainer's
//!   full-graph body with the loss masked to the batch. With one batch
//!   covering every vertex it is *bitwise identical* to full-batch
//!   training — the parity criterion the test suite enforces.
//!
//! Determinism: samples are pure functions of `(seed, epoch, batch)`, so
//! every rank reconstructs every peer's blocks without communication;
//! row exchanges assemble and reduce in ascending rank order; and resumed
//! runs replay the same batches from the checkpoint epoch.

use dgcl_gnn::AggKind;
use dgcl_graph::khop::GraphError;
use dgcl_graph::sample::{round_seed, seed_batches, BlockPool, LayerBlock};
use dgcl_graph::{CsrGraph, VertexId};
use dgcl_tensor::Matrix;

use crate::backend::CommBackend;
use crate::error::RuntimeError;
use crate::fabric::{expect_payload, Fabric, MsgKey};
use crate::featcache::{ClusterCache, HaloGatherCtx};
use crate::runtime::DeviceHandle;
use crate::trainer::{full_forward, reduce_and_step, RunCtx};

/// How the trainer samples mini-batches. Attach to
/// [`TrainConfig::sampling`] to switch the distributed trainer from
/// full-batch epochs to sampled mini-batch epochs.
#[derive(Debug, Clone)]
pub struct SamplingConfig {
    /// Seeds per mini-batch; `0` means one batch of the whole seed set.
    pub batch_size: usize,
    /// Per-layer fanout, input-closest layer first; `None` = ∞ (the
    /// full neighborhood). Length must equal the network's layer count.
    pub fanouts: Vec<Option<usize>>,
    /// Seed for batch shuffling and neighbor draws; identical across
    /// ranks by construction (it lives in the shared config).
    pub seed: u64,
    /// The training seed set; `None` means every vertex. Out-of-range
    /// ids surface as a typed [`RuntimeError::Protocol`] through
    /// `run_cluster`, never as a rank-thread abort.
    pub train_vertices: Option<Vec<VertexId>>,
}

impl SamplingConfig {
    /// A sampled config with the given batch size and per-layer fanouts,
    /// and a fixed seed.
    pub fn new(batch_size: usize, fanouts: Vec<Option<usize>>) -> Self {
        Self {
            batch_size,
            fanouts,
            seed: 0x5EED,
            train_vertices: None,
        }
    }

    /// An exact (fanout = ∞ on every layer) config: mini-batched in the
    /// loss only, reproducing full-batch numerics when one batch covers
    /// the whole seed set.
    pub fn exact(batch_size: usize, layers: usize) -> Self {
        Self::new(batch_size, vec![None; layers])
    }

    /// Whether every fanout is ∞ (routes to the full-graph body with a
    /// masked loss).
    pub(crate) fn is_exact(&self) -> bool {
        self.fanouts.iter().all(Option::is_none)
    }
}

/// Maps a sampler [`GraphError`] onto the runtime's typed error space so
/// a bad batch unwinds through the poison protocol like any other
/// protocol violation.
pub(crate) fn graph_err(rank: usize, e: &GraphError) -> RuntimeError {
    RuntimeError::Protocol {
        rank,
        detail: format!("sampler: {e}"),
    }
}

/// One rank's view of a batch row exchange: assemble the matrix for a
/// global row list from the per-rank owners. Every rank builds the same
/// structure from the shared block chain, partition and cache sets, so
/// the sends and receives pair up without negotiation.
///
/// Two volume optimisations live here:
///
/// * **Dedup** — repeated row indices in the request list cross the
///   wire once; every occurrence is filled from the single transferred
///   copy.
/// * **Feature cache** — rows resident in the requester's
///   [`ClusterCache`] never cross the wire at all: their values are
///   embedded in the plan at build time, and senders skip them because
///   cache sets are shared knowledge.
#[derive(Debug)]
pub struct GatherPlan {
    out_rows: usize,
    cols: usize,
    /// This rank's unique owned request rows, ascending global order.
    own: Matrix,
    /// `(own row, output position)` per occurrence in the request list.
    own_place: Vec<(u32, u32)>,
    /// Ascending peers and the `own` row indices each receives (rows in
    /// the peer's cache are omitted; empty sends are dropped).
    sends: Vec<(usize, Vec<usize>)>,
    /// Ascending contributing peers: unique wire row count and
    /// `(wire row, output position)` per occurrence.
    recvs: Vec<RecvEntry>,
    /// Cache-served values copied out of this rank's cache at build
    /// time, with `(cached row, output position)` placements.
    cached: Matrix,
    cached_place: Vec<(u32, u32)>,
}

/// `(peer, unique wire rows, (wire row, output position) placements)`.
type RecvEntry = (usize, usize, Vec<(u32, u32)>);

/// Where one unique requested row comes from during assembly.
enum RowSource {
    Own(u32),
    Cached(u32),
    Wire { peer: u32, row: u32 },
}

impl GatherPlan {
    /// Builds the uncached plan for assembling `rows` (global ids; any
    /// order, duplicates allowed — each unique row travels once).
    /// `have` lists the global ids backing `values`' rows (ascending);
    /// it must contain every row of `rows` this rank owns.
    pub fn build(
        rows: &[VertexId],
        partition: &[u32],
        num_parts: usize,
        rank: usize,
        have: &[VertexId],
        values: &Matrix,
    ) -> Self {
        Self::build_inner(rows, partition, num_parts, rank, have, values, None)
    }

    /// [`GatherPlan::build`] against the cluster's feature cache: rows
    /// in this rank's cache are served locally (values embedded in the
    /// plan), and sends skip rows resident in each receiver's cache.
    /// Bumps this rank's [`CacheStats`](crate::featcache::CacheStats)
    /// with the exchange's unique hit/miss rows.
    pub fn build_cached(
        rows: &[VertexId],
        partition: &[u32],
        num_parts: usize,
        rank: usize,
        have: &[VertexId],
        values: &Matrix,
        cache: &ClusterCache,
    ) -> Self {
        Self::build_inner(rows, partition, num_parts, rank, have, values, Some(cache))
    }

    fn build_inner(
        rows: &[VertexId],
        partition: &[u32],
        num_parts: usize,
        rank: usize,
        have: &[VertexId],
        values: &Matrix,
        cache: Option<&ClusterCache>,
    ) -> Self {
        let cols = values.cols();
        // Unique request rows, ascending: the dedup that makes each
        // remote row cross the wire once per exchange.
        let mut uniq: Vec<VertexId> = rows.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        let mut by_part: Vec<Vec<u32>> = vec![Vec::new(); num_parts];
        for (u, &v) in uniq.iter().enumerate() {
            by_part[partition[v as usize] as usize].push(u as u32);
        }
        // Resolve every unique row to its assembly source. Senders and
        // receivers agree because `uniq`, the partition and the cache
        // sets are all shared knowledge.
        let mut source: Vec<Option<RowSource>> = (0..uniq.len()).map(|_| None).collect();
        let own_idx: Vec<usize> = by_part[rank]
            .iter()
            .map(|&u| {
                have.binary_search(&uniq[u as usize])
                    .expect("owner holds its rows")
            })
            .collect();
        for (r, &u) in by_part[rank].iter().enumerate() {
            source[u as usize] = Some(RowSource::Own(r as u32));
        }
        let own = values.gather_rows(&own_idx);
        let mine = cache.map(|c| &c.caches[rank]);
        let mut cached_rows: Vec<usize> = Vec::new();
        let mut recvs: Vec<RecvEntry> = Vec::new();
        for (peer, part) in by_part.iter().enumerate() {
            if peer == rank {
                continue;
            }
            let mut wire = 0u32;
            for &u in part {
                let v = uniq[u as usize];
                if let Some(ci) = mine.and_then(|m| m.lookup(v)) {
                    source[u as usize] = Some(RowSource::Cached(cached_rows.len() as u32));
                    cached_rows.push(ci);
                } else {
                    source[u as usize] = Some(RowSource::Wire {
                        peer: peer as u32,
                        row: wire,
                    });
                    wire += 1;
                }
            }
            if wire > 0 {
                recvs.push((peer, wire as usize, Vec::new()));
            }
        }
        let cached = match mine {
            Some(m) if !cached_rows.is_empty() => m.rows.gather_rows(&cached_rows),
            _ => Matrix::zeros(0, cols),
        };
        if let Some(m) = mine {
            let fetched: usize = recvs.iter().map(|(_, n, _)| *n).sum();
            m.stats
                .record(cached_rows.len() as u64, fetched as u64, cols);
        }
        // Placements: one entry per occurrence in the original list.
        let mut own_place = Vec::new();
        let mut cached_place = Vec::new();
        for (i, &v) in rows.iter().enumerate() {
            let u = uniq.binary_search(&v).expect("uniq covers rows");
            match source[u].as_ref().expect("every unique row resolved") {
                RowSource::Own(r) => own_place.push((*r, i as u32)),
                RowSource::Cached(r) => cached_place.push((*r, i as u32)),
                RowSource::Wire { peer, row } => {
                    let entry = recvs
                        .iter_mut()
                        .find(|(p, _, _)| *p == *peer as usize)
                        .expect("contributing peer recorded");
                    entry.2.push((*row, i as u32));
                }
            }
        }
        // Sends: each peer gets this rank's unique owned rows minus the
        // peer's cached set, in ascending global order (the order the
        // peer's wire indices assume).
        let sends: Vec<(usize, Vec<usize>)> = (0..num_parts)
            .filter(|&peer| peer != rank)
            .filter_map(|peer| {
                let out: Vec<usize> = by_part[rank]
                    .iter()
                    .enumerate()
                    .filter(|&(_, &u)| match cache {
                        Some(c) => !c.contains(peer, uniq[u as usize]),
                        None => true,
                    })
                    .map(|(r, _)| r)
                    .collect();
                (!out.is_empty()).then_some((peer, out))
            })
            .collect();
        Self {
            out_rows: rows.len(),
            cols,
            own,
            own_place,
            sends,
            recvs,
            cached,
            cached_place,
        }
    }
}

/// Adds `m` into `acc` row-wise (shapes must match).
fn add_into(acc: &mut Matrix, m: &Matrix) {
    for r in 0..acc.rows() {
        for (a, &b) in acc.row_mut(r).iter_mut().zip(m.row(r)) {
            *a += b;
        }
    }
}

/// Executes a [`GatherPlan`] under a pre-assigned op: posts each peer
/// its filtered unique owned rows, then assembles the full matrix from
/// its own rows, the cache-served rows embedded in the plan, and each
/// contributing peer's wire block, receives drained in ascending rank
/// order.
pub(crate) fn execute_gather(
    fabric: &Fabric,
    rank: usize,
    op: u64,
    plan: &GatherPlan,
) -> Result<Matrix, RuntimeError> {
    let key: MsgKey = (op, 0, 0, 0);
    for (peer, idx) in &plan.sends {
        fabric.wait_ready(*peer, op, rank)?;
        let payload = if idx.len() == plan.own.rows() {
            plan.own.as_slice().to_vec()
        } else {
            plan.own.gather_rows(idx).into_vec()
        };
        fabric.send(rank, *peer, key, payload)?;
    }
    let mut out = Matrix::zeros(plan.out_rows, plan.cols);
    for &(r, p) in &plan.own_place {
        out.set_row(p as usize, plan.own.row(r as usize));
    }
    for &(r, p) in &plan.cached_place {
        out.set_row(p as usize, plan.cached.row(r as usize));
    }
    for (peer, wire_rows, place) in &plan.recvs {
        let payload = fabric.recv(*peer, rank, key)?;
        expect_payload(rank, payload.len(), wire_rows * plan.cols, key)?;
        let m = Matrix::from_vec(*wire_rows, plan.cols, payload);
        for &(r, p) in place {
            out.set_row(p as usize, m.row(r as usize));
        }
    }
    Ok(out)
}

/// The adjoint of [`execute_gather`]: every rank holds a dense gradient
/// contribution over all of `rows`; each owner receives and sums the
/// slices for its rows, in ascending rank order (this rank's own slice
/// folded at its rank position), so the reduction is deterministic.
/// Returns this rank's reduced rows (its owned subset of `rows`,
/// ascending).
pub(crate) fn execute_reduce(
    fabric: &Fabric,
    rank: usize,
    op: u64,
    contrib: &Matrix,
    rows: &[VertexId],
    partition: &[u32],
) -> Result<Matrix, RuntimeError> {
    debug_assert_eq!(contrib.rows(), rows.len());
    let key: MsgKey = (op, 0, 0, 0);
    let num_parts = fabric.num_devices();
    let cols = contrib.cols();
    let mut positions: Vec<Vec<usize>> = vec![Vec::new(); num_parts];
    for (i, &v) in rows.iter().enumerate() {
        positions[partition[v as usize] as usize].push(i);
    }
    for (peer, pos) in positions.iter().enumerate() {
        if peer == rank || pos.is_empty() {
            continue;
        }
        let slice = contrib.gather_rows(pos);
        fabric.wait_ready(peer, op, rank)?;
        fabric.send(rank, peer, key, slice.into_vec())?;
    }
    let own_pos = &positions[rank];
    let mut out = Matrix::zeros(own_pos.len(), cols);
    for peer in 0..num_parts {
        if peer == rank {
            add_into(&mut out, &contrib.gather_rows(own_pos));
        } else if !own_pos.is_empty() {
            let payload = fabric.recv(peer, rank, key)?;
            expect_payload(rank, payload.len(), own_pos.len() * cols, key)?;
            add_into(&mut out, &Matrix::from_vec(own_pos.len(), cols, payload));
        }
    }
    Ok(out)
}

/// Aggregates the sampled neighborhoods of this rank's block rows from
/// the assembled source matrix: the mini-batch analogue of
/// [`dgcl_gnn::aggregate::aggregate_sum`] / `aggregate_mean`, with the
/// *sampled* degree as the mean divisor (degree 1 is left undivided,
/// mirroring the full-graph kernel).
pub(crate) fn block_aggregate(
    block: &LayerBlock,
    rows_mine: &[usize],
    h_src: &Matrix,
    kind: AggKind,
) -> Matrix {
    let cols = h_src.cols();
    let mut out = Matrix::zeros(rows_mine.len(), cols);
    for (j, &i) in rows_mine.iter().enumerate() {
        let targets = block.row(i);
        let row = out.row_mut(j);
        for &t in targets {
            for (o, &x) in row.iter_mut().zip(h_src.row(t as usize)) {
                *o += x;
            }
        }
        if kind == AggKind::Mean && targets.len() > 1 {
            let inv = 1.0 / targets.len() as f32;
            for o in row.iter_mut() {
                *o *= inv;
            }
        }
    }
    out
}

/// The adjoint of [`block_aggregate`]: scatters this rank's aggregate
/// gradients back over the block edges into a dense gradient over the
/// full source set (zeros elsewhere), ready for [`execute_reduce`].
pub(crate) fn block_scatter_grad(
    block: &LayerBlock,
    rows_mine: &[usize],
    grad_agg: &Matrix,
    kind: AggKind,
) -> Matrix {
    let cols = grad_agg.cols();
    let mut out = Matrix::zeros(block.num_src(), cols);
    for (j, &i) in rows_mine.iter().enumerate() {
        let targets = block.row(i);
        let scale = if kind == AggKind::Mean && targets.len() > 1 {
            1.0 / targets.len() as f32
        } else {
            1.0
        };
        for &t in targets {
            for (o, &g) in out.row_mut(t as usize).iter_mut().zip(grad_agg.row(j)) {
                *o += scale * g;
            }
        }
    }
    out
}

/// The training seed set: the configured subset, or every vertex.
fn train_set(scfg: &SamplingConfig, graph: &CsrGraph) -> Vec<VertexId> {
    match &scfg.train_vertices {
        Some(v) => v.clone(),
        None => (0..graph.num_vertices() as VertexId).collect(),
    }
}

/// The exact path's seed set, range-checked up front: that path never
/// runs the sampler (which rejects bad seeds on the block path), so an
/// out-of-range id would otherwise only ever miss the loss mask.
pub(crate) fn exact_seeds(
    handle: &DeviceHandle<'_>,
    scfg: &SamplingConfig,
    graph: &CsrGraph,
) -> Result<Vec<VertexId>, RuntimeError> {
    let seeds = train_set(scfg, graph);
    if let Some(&bad) = seeds
        .iter()
        .find(|&&v| (v as usize) >= graph.num_vertices())
    {
        let e = GraphError::SeedOutOfRange {
            seed: bad,
            num_vertices: graph.num_vertices(),
        };
        return handle.poison_on_err(Err(graph_err(handle.rank, &e)));
    }
    Ok(seeds)
}

/// The block path: finite fanouts, compact per-batch blocks, row
/// exchanges between layers, gradient row reductions on the way back.
pub(crate) fn device_body_blocks(
    handle: &DeviceHandle<'_>,
    run: &RunCtx<'_>,
    backend: &dyn CommBackend,
    scfg: &SamplingConfig,
) -> Result<(Vec<f32>, Matrix), RuntimeError> {
    let rank = handle.rank;
    let info = handle.comm_info();
    let partition: &[u32] = &info.pg.partition;
    let num_parts = info.pg.num_parts;
    let owned: &[VertexId] = &info.pg.local[rank];
    let features = &run.features[rank];
    let agg_kind = run.cfg.arch.agg_kind();
    let mut net = run.net0.clone();
    let num_layers = net.num_layers();
    let seeds = train_set(scfg, run.graph);
    // Layer-0 feature gathers (the only gathers over *raw* features, the
    // immutable rows the cache holds) consult the cache; inter-layer
    // gathers move activations and always build uncached plans.
    let feature_plan = |src: &[VertexId]| match run.cache {
        Some(c) => GatherPlan::build_cached(src, partition, num_parts, rank, owned, features, c),
        None => GatherPlan::build(src, partition, num_parts, rank, owned, features),
    };
    // Per-batch block-chain scratch recycles across batches.
    let mut pool = BlockPool::new();
    let mut losses = Vec::with_capacity(run.end_epoch - run.start_epoch);
    for epoch in run.start_epoch..run.end_epoch {
        handle.check_epoch_fault(epoch)?;
        let batches = seed_batches(&seeds, scfg.batch_size, scfg.seed, epoch);
        let mut epoch_loss = 0.0f32;
        for (bi, batch) in batches.iter().enumerate() {
            let blocks = handle.poison_on_err(
                pool.sample_blocks(
                    run.graph,
                    batch,
                    &scfg.fanouts,
                    round_seed(scfg.seed, epoch, bi),
                )
                .map_err(|e| graph_err(rank, &e)),
            )?;
            let mut h = backend.fetch_rows(handle, &feature_plan(&blocks[0].src))?;
            // Forward: each rank computes only the block rows it owns;
            // between layers the owners' outputs reassemble into the next
            // block's full source matrix.
            let mut rows_mine_per_layer: Vec<Vec<usize>> = Vec::with_capacity(num_layers);
            for (l, block) in blocks.iter().enumerate().take(num_layers) {
                let rows_mine: Vec<usize> = (0..block.num_dst())
                    .filter(|&i| partition[block.dst[i] as usize] as usize == rank)
                    .collect();
                let self_pos: Vec<usize> = rows_mine
                    .iter()
                    .map(|&i| block.dst_pos[i] as usize)
                    .collect();
                let h_self = h.gather_rows(&self_pos);
                let agg = block_aggregate(block, &rows_mine, &h, agg_kind);
                let h_mine = net.layers_mut()[l].forward_agg(&h_self, agg);
                if l + 1 < num_layers {
                    let my_dst: Vec<VertexId> = rows_mine.iter().map(|&i| block.dst[i]).collect();
                    let plan =
                        GatherPlan::build(&block.dst, partition, num_parts, rank, &my_dst, &h_mine);
                    h = backend.fetch_rows(handle, &plan)?;
                } else {
                    h = h_mine;
                }
                rows_mine_per_layer.push(rows_mine);
            }
            // Loss over this rank's batch rows. mse is a *sum*, so batch
            // losses add across ranks and across batches.
            let final_block = blocks.last().expect("at least one layer");
            let target_rows: Vec<usize> = rows_mine_per_layer[num_layers - 1]
                .iter()
                .map(|&i| {
                    owned
                        .binary_search(&final_block.dst[i])
                        .expect("dst row is owned")
                })
                .collect();
            let tgt = run.targets[rank].gather_rows(&target_rows);
            let diff = h.sub(&tgt);
            let local_loss = 0.5 * diff.norm_sq();
            // Backward: scatter aggregate gradients over the block edges,
            // reduce rows to their owners, fold the self-path locally.
            let mut grad = diff;
            for l in (0..num_layers).rev() {
                let block = &blocks[l];
                let rows_mine = &rows_mine_per_layer[l];
                let (grad_agg, direct) = net.layers_mut()[l].backward_agg(&grad);
                let mut grad_src = block_scatter_grad(block, rows_mine, &grad_agg, agg_kind);
                if let Some(direct) = direct {
                    for (j, &i) in rows_mine.iter().enumerate() {
                        let p = block.dst_pos[i] as usize;
                        for (o, &g) in grad_src.row_mut(p).iter_mut().zip(direct.row(j)) {
                            *o += g;
                        }
                    }
                }
                if l > 0 {
                    // Owners of this block's source rows (= the previous
                    // block's destination rows) collect their gradients.
                    grad = backend.push_rows(handle, &grad_src, &block.src, partition)?;
                }
            }
            epoch_loss += reduce_and_step(handle, &mut net, run.cfg.lr, local_loss)?;
            pool.recycle(blocks);
        }
        losses.push(epoch_loss);
        run.publish(rank, &net, &losses);
    }
    let halo = HaloGatherCtx::build(info, rank, run.halo_cache);
    let out = full_forward(handle, &mut net, backend, agg_kind, features, halo.as_ref())?;
    Ok((losses, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgcl_graph::sample::build_block;
    use dgcl_graph::GraphBuilder;

    fn path5() -> CsrGraph {
        let mut b = GraphBuilder::new(5);
        for v in 0..4 {
            b.add_edge(v, v + 1);
        }
        b.build_symmetric()
    }

    #[test]
    fn block_aggregate_matches_full_kernel_on_full_fanout() {
        // With fanout ∞ over all vertices, the block kernel must agree
        // with the full-graph aggregate (same neighbor order).
        let g = path5();
        let h = Matrix::from_vec(
            5,
            2,
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
        );
        let block = build_block(&g, &[0, 1, 2, 3, 4], None, 0, 0).unwrap();
        let all: Vec<usize> = (0..5).collect();
        for kind in [AggKind::Sum, AggKind::Mean] {
            let full = match kind {
                AggKind::Sum => dgcl_gnn::aggregate::aggregate_sum(&g, &h, 5),
                AggKind::Mean => dgcl_gnn::aggregate::aggregate_mean(&g, &h, 5),
            };
            let sampled = block_aggregate(&block, &all, &h, kind);
            assert_eq!(full.max_abs_diff(&sampled), 0.0, "{kind:?}");
        }
    }

    #[test]
    fn scatter_is_the_adjoint_of_aggregate() {
        // <agg(h), g> == <h, scatter(g)> for sum and mean alike.
        let g = path5();
        let block = build_block(&g, &[1, 3], Some(2), 7, 0).unwrap();
        let h = Matrix::from_vec(
            block.num_src(),
            2,
            (0..block.num_src() * 2)
                .map(|i| i as f32 * 0.3 + 1.0)
                .collect(),
        );
        let grad = Matrix::from_vec(2, 2, vec![0.5, -1.0, 2.0, 0.25]);
        for kind in [AggKind::Sum, AggKind::Mean] {
            let agg = block_aggregate(&block, &[0, 1], &h, kind);
            let scat = block_scatter_grad(&block, &[0, 1], &grad, kind);
            let lhs: f32 = agg
                .as_slice()
                .iter()
                .zip(grad.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            let rhs: f32 = h
                .as_slice()
                .iter()
                .zip(scat.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            assert!((lhs - rhs).abs() < 1e-5, "{kind:?}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn exact_config_is_detected() {
        assert!(SamplingConfig::exact(8, 2).is_exact());
        assert!(!SamplingConfig::new(8, vec![None, Some(3)]).is_exact());
    }

    #[test]
    fn gather_plan_serves_duplicate_rows_from_one_copy() {
        // Request list repeats rows; each unique row is held once in the
        // plan and every occurrence assembles from that single copy.
        let values = Matrix::from_vec(4, 2, (0..8).map(|i| i as f32).collect());
        let have: Vec<VertexId> = vec![0, 1, 2, 3];
        let partition = vec![0u32; 4];
        let rows: Vec<VertexId> = vec![2, 0, 2, 3, 0];
        let plan = GatherPlan::build(&rows, &partition, 1, 0, &have, &values);
        assert_eq!(plan.own.rows(), 3, "unique rows only");
        assert!(plan.sends.is_empty() && plan.recvs.is_empty());
        let fabric = Fabric::new(1);
        let out = execute_gather(&fabric, 0, 0, &plan).unwrap();
        assert_eq!(out.rows(), rows.len());
        for (i, &v) in rows.iter().enumerate() {
            assert_eq!(out.row(i), values.row(v as usize), "occurrence {i}");
        }
    }

    #[test]
    fn gather_plan_sends_mirror_peer_recvs_with_dedup() {
        // Two ranks build plans for the same duplicated request list;
        // the sender's unique row blocks must match the receiver's
        // expected wire counts, and every occurrence gets a placement.
        let values = Matrix::from_vec(4, 1, vec![10.0, 11.0, 12.0, 13.0]);
        let partition = vec![0u32, 0, 1, 1];
        let have0: Vec<VertexId> = vec![0, 1];
        let have1: Vec<VertexId> = vec![2, 3];
        let v0 = values.gather_rows(&[0, 1]);
        let v1 = values.gather_rows(&[2, 3]);
        let rows: Vec<VertexId> = vec![2, 0, 2, 3, 0];
        let p0 = GatherPlan::build(&rows, &partition, 2, 0, &have0, &v0);
        let p1 = GatherPlan::build(&rows, &partition, 2, 1, &have1, &v1);
        // Unique owned rows: rank 0 holds {0}, rank 1 holds {2, 3}.
        assert_eq!(p0.own.rows(), 1);
        assert_eq!(p1.own.rows(), 2);
        assert_eq!(p0.sends, vec![(1, vec![0])]);
        assert_eq!(p1.sends, vec![(0, vec![0, 1])]);
        assert_eq!(p0.recvs.len(), 1);
        let (peer, wire, place) = &p0.recvs[0];
        assert_eq!((*peer, *wire), (1, 2));
        let placed = p0.own_place.len() + p0.cached_place.len() + place.len();
        assert_eq!(placed, rows.len(), "every occurrence placed exactly once");
    }
}
