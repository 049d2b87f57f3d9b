//! Traced replays of the distributed trainer's per-rank step.
//!
//! Each replay makes, from inside `run_cluster_with`, the same public
//! calls `train_distributed` makes for its workload, in the same order,
//! and wraps each in a span. Collectives the trainer posts to its
//! background worker (the eager layer-0 allgather, the gradient buckets,
//! the next batch's feature prefetch) run inline here, so each one's
//! time is attributed to the layer that issued it. Every collective is
//! bitwise identical however it is scheduled, so a faithful replay
//! reproduces `train_distributed`'s losses and outputs bit for bit; the
//! traced run checks this.

use dgcl::featcache::{halo_gather, HaloExchange};
use dgcl::sampling::{GatherPlan, SamplingConfig};
use dgcl::trainer::TrainConfig;
use dgcl::{ClusterCache, DeviceHandle, ExecStrategy, RuntimeError};
use dgcl_gnn::aggregate::{
    aggregate_mean, aggregate_mean_backward, aggregate_sum, aggregate_sum_backward,
};
use dgcl_gnn::loss::mse_loss;
use dgcl_gnn::{AggKind, GnnNetwork};
use dgcl_graph::sample::{round_seed, seed_batches, BlockPool, LayerBlock};
use dgcl_graph::{CsrGraph, VertexId};
use dgcl_tensor::Matrix;

use crate::trace::{Recorder, NONE};

/// A replay's result: per-epoch losses and this rank's final outputs.
pub type RankResult = Result<(Vec<f32>, Matrix), RuntimeError>;

fn bytes_of(rows: usize, cols: usize) -> u64 {
    (rows * cols * 4) as u64
}

/// Bytes of allreducing `mats` (the payload each rank contributes).
fn allreduce_bytes(mats: &[Matrix]) -> u64 {
    mats.iter().map(|m| 4 * m.len() as u64).sum()
}

fn aggregate(kind: AggKind, adj: &CsrGraph, h: &Matrix, num_out: usize) -> Matrix {
    match kind {
        AggKind::Sum => aggregate_sum(adj, h, num_out),
        AggKind::Mean => aggregate_mean(adj, h, num_out),
    }
}

fn aggregate_backward(kind: AggKind, adj: &CsrGraph, grad: &Matrix, num_total: usize) -> Matrix {
    match kind {
        AggKind::Sum => aggregate_sum_backward(adj, grad, num_total),
        AggKind::Mean => aggregate_mean_backward(adj, grad, num_total),
    }
}

/// Adds the layer's self-path gradient onto the local rows.
fn fold_direct(mut grad: Matrix, direct: Option<Matrix>) -> Matrix {
    if let Some(direct) = direct {
        for v in 0..grad.rows() {
            for (g, &x) in grad.row_mut(v).iter_mut().zip(direct.row(v)) {
                *g += x;
            }
        }
    }
    grad
}

/// Bytes this rank sends per forward allgather of a `cols`-wide matrix,
/// from its forward send tables.
pub fn allgather_send_bytes(handle: &DeviceHandle<'_>, cols: usize) -> u64 {
    let info = handle.comm_info();
    let rows: usize = info.forward_tables.per_device[handle.rank]
        .iter()
        .map(|io| io.send.len())
        .sum();
    bytes_of(rows, cols)
}

/// Full-batch training on the planned backend with overlap on and the
/// feature cache off: per layer, the pipelined allgather, aggregation
/// and dense update; the loss bucket, then per layer (deepest first)
/// the dense backward, aggregation backward, pipelined backward scatter
/// and that layer's gradient bucket; then the step. One more forward
/// produces the outputs.
pub fn fullbatch_rank(
    handle: &DeviceHandle<'_>,
    rec: &Recorder,
    cfg: &TrainConfig,
    net0: &GnnNetwork,
    features: &Matrix,
    targets: &Matrix,
) -> RankResult {
    let lg = handle.local_graph();
    let adj = &lg.graph;
    let num_local = lg.num_local;
    let num_total = lg.num_total();
    let kind = cfg.arch.agg_kind();
    let mut net = net0.clone();
    let num_layers = net.num_layers();
    let forward = |net: &mut GnnNetwork| -> Result<Matrix, RuntimeError> {
        let mut h = features.clone();
        for (l, layer) in net.layers_mut().iter_mut().enumerate() {
            let li = l as i32;
            let sent = allgather_send_bytes(handle, h.cols());
            let full = rec.span("runtime.allgather", li, sent, || {
                handle.graph_allgather_with(ExecStrategy::Pipelined, &h)
            })?;
            let agg = rec.span("gnn.aggregate_fwd", li, 0, || {
                aggregate(kind, adj, &full, num_local)
            });
            h = rec.span("gnn.dense_fwd", li, 0, || layer.forward_agg(&h, agg));
        }
        Ok(h)
    };
    let mut losses = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        rec.set_epoch(epoch as i32);
        let out = forward(&mut net)?;
        let (local_loss, grad_out) = rec.span("gnn.loss", NONE, 0, || mse_loss(&out, targets));
        let loss_bucket = vec![Matrix::full(1, 1, local_loss)];
        let loss = rec.span("collectives.allreduce", NONE, 4, || {
            handle.allreduce(loss_bucket)
        })?;
        let mut grads: Vec<Vec<Matrix>> = Vec::with_capacity(num_layers);
        let mut grad = grad_out;
        for (l, layer) in net.layers_mut().iter_mut().enumerate().rev() {
            let li = l as i32;
            let (grad_agg, direct) = rec.span("gnn.dense_bwd", li, 0, || layer.backward_agg(&grad));
            let grad_full = rec.span("gnn.aggregate_bwd", li, 0, || {
                aggregate_backward(kind, adj, &grad_agg, num_total)
            });
            let back = rec.span("runtime.scatter", li, 0, || {
                handle.scatter_backward_with(ExecStrategy::Pipelined, &grad_full)
            })?;
            grad = fold_direct(back, direct);
            let bucket: Vec<Matrix> = layer.gradients().into_iter().cloned().collect();
            let bytes = allreduce_bytes(&bucket);
            grads.push(rec.span("collectives.allreduce", li, bytes, || {
                handle.allreduce(bucket)
            })?);
        }
        losses.push(loss[0][(0, 0)]);
        rec.span("gnn.step", NONE, 0, || {
            for (offset, g) in grads.iter().enumerate() {
                net.layers_mut()[num_layers - 1 - offset].set_gradients(g);
            }
            net.step(cfg.lr);
        });
    }
    rec.set_epoch(NONE);
    let out = forward(&mut net)?;
    Ok((losses, out))
}

/// The sampled trainer's per-row mean/sum over a block (the sampled
/// degree divides; degree 1 stays undivided).
fn block_aggregate(
    block: &LayerBlock,
    rows_mine: &[usize],
    h_src: &Matrix,
    kind: AggKind,
) -> Matrix {
    let mut out = Matrix::zeros(rows_mine.len(), h_src.cols());
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

/// The adjoint of [`block_aggregate`]: a dense gradient over the block's
/// source rows.
fn block_scatter_grad(
    block: &LayerBlock,
    rows_mine: &[usize],
    grad_agg: &Matrix,
    kind: AggKind,
) -> Matrix {
    let mut out = Matrix::zeros(block.num_src(), grad_agg.cols());
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

/// What a sampled replay needs besides the handle.
pub struct SampledCtx<'a> {
    pub cfg: &'a TrainConfig,
    pub scfg: &'a SamplingConfig,
    pub net0: &'a GnnNetwork,
    pub graph: &'a CsrGraph,
    /// Per-rank owned feature and target rows.
    pub features: &'a [Matrix],
    pub targets: &'a [Matrix],
    pub cache: &'a ClusterCache,
}

/// Mini-batch training with the feature cache on the planned backend:
/// per batch, block sampling, the cached layer-0 gather plan and row
/// exchange, per layer block aggregation and dense update with an
/// inter-layer row exchange, the backward with gradient row reductions,
/// and one allreduce of every gradient plus the loss before the step.
/// The final forward runs layer 0 through the cached halo exchange and
/// later layers through the barriered allgather.
pub fn sampled_rank(handle: &DeviceHandle<'_>, rec: &Recorder, ctx: &SampledCtx<'_>) -> RankResult {
    let rank = handle.rank;
    let info = handle.comm_info();
    let partition: &[u32] = &info.pg.partition;
    let num_parts = info.pg.num_parts;
    let owned: &[VertexId] = &info.pg.local[rank];
    let features = &ctx.features[rank];
    let kind = ctx.cfg.arch.agg_kind();
    let scfg = ctx.scfg;
    let mut net = ctx.net0.clone();
    let num_layers = net.num_layers();
    let seeds: Vec<VertexId> = (0..ctx.graph.num_vertices() as VertexId).collect();
    let mine = &ctx.cache.caches[rank];
    let mut pool = BlockPool::new();
    let mut losses = Vec::with_capacity(ctx.cfg.epochs);
    let err = |e: dgcl_graph::GraphError| RuntimeError::Protocol {
        rank,
        detail: format!("sampler: {e}"),
    };
    for epoch in 0..ctx.cfg.epochs {
        rec.set_epoch(epoch as i32);
        let batches = seed_batches(&seeds, scfg.batch_size, scfg.seed, epoch);
        let mut epoch_loss = 0.0f32;
        for (bi, batch) in batches.iter().enumerate() {
            let blocks = rec
                .span("graph.sample_blocks", NONE, 0, || {
                    pool.sample_blocks(
                        ctx.graph,
                        batch,
                        &scfg.fanouts,
                        round_seed(scfg.seed, epoch, bi),
                    )
                })
                .map_err(err)?;
            let src0 = &blocks[0].src;
            let plan = rec.span("sampling.gather_plan", 0, 0, || {
                GatherPlan::build_cached(
                    src0, partition, num_parts, rank, owned, features, ctx.cache,
                )
            });
            let fetched = src0
                .iter()
                .filter(|&&v| partition[v as usize] as usize != rank && mine.lookup(v).is_none())
                .count();
            let cols = features.cols();
            let mut h = rec.span("sampling.exchange", 0, bytes_of(fetched, cols), || {
                handle.exchange_rows(&plan)
            })?;
            let mut rows_mine_per_layer: Vec<Vec<usize>> = Vec::with_capacity(num_layers);
            for (l, block) in blocks.iter().enumerate().take(num_layers) {
                let li = l as i32;
                let rows_mine: Vec<usize> = (0..block.num_dst())
                    .filter(|&i| partition[block.dst[i] as usize] as usize == rank)
                    .collect();
                let self_pos: Vec<usize> = rows_mine
                    .iter()
                    .map(|&i| block.dst_pos[i] as usize)
                    .collect();
                let h_self = h.gather_rows(&self_pos);
                let agg = rec.span("gnn.aggregate_fwd", li, 0, || {
                    block_aggregate(block, &rows_mine, &h, kind)
                });
                let h_mine = rec.span("gnn.dense_fwd", li, 0, || {
                    net.layers_mut()[l].forward_agg(&h_self, agg)
                });
                if l + 1 < num_layers {
                    let my_dst: Vec<VertexId> = rows_mine.iter().map(|&i| block.dst[i]).collect();
                    let plan = rec.span("sampling.gather_plan", li + 1, 0, || {
                        GatherPlan::build(&block.dst, partition, num_parts, rank, &my_dst, &h_mine)
                    });
                    let remote = block.dst.len() - my_dst.len();
                    h = rec.span(
                        "sampling.exchange",
                        li + 1,
                        bytes_of(remote, h_mine.cols()),
                        || handle.exchange_rows(&plan),
                    )?;
                } else {
                    h = h_mine;
                }
                rows_mine_per_layer.push(rows_mine);
            }
            let final_block = blocks.last().expect("at least one layer");
            let target_rows: Vec<usize> = rows_mine_per_layer[num_layers - 1]
                .iter()
                .map(|&i| {
                    owned
                        .binary_search(&final_block.dst[i])
                        .expect("dst row is owned")
                })
                .collect();
            let (local_loss, diff) = rec.span("gnn.loss", NONE, 0, || {
                let tgt = ctx.targets[rank].gather_rows(&target_rows);
                let diff = h.sub(&tgt);
                (0.5 * diff.norm_sq(), diff)
            });
            let mut grad = diff;
            for l in (0..num_layers).rev() {
                let li = l as i32;
                let block = &blocks[l];
                let rows_mine = &rows_mine_per_layer[l];
                let (grad_agg, direct) = rec.span("gnn.dense_bwd", li, 0, || {
                    net.layers_mut()[l].backward_agg(&grad)
                });
                let grad_src = rec.span("gnn.aggregate_bwd", li, 0, || {
                    let mut g = block_scatter_grad(block, rows_mine, &grad_agg, kind);
                    if let Some(direct) = direct {
                        for (j, &i) in rows_mine.iter().enumerate() {
                            let p = block.dst_pos[i] as usize;
                            for (o, &d) in g.row_mut(p).iter_mut().zip(direct.row(j)) {
                                *o += d;
                            }
                        }
                    }
                    g
                });
                if l > 0 {
                    let remote = block
                        .src
                        .iter()
                        .filter(|&&v| partition[v as usize] as usize != rank)
                        .count();
                    grad = rec.span(
                        "sampling.reduce",
                        li,
                        bytes_of(remote, grad_src.cols()),
                        || handle.reduce_rows(&grad_src, &block.src, partition),
                    )?;
                }
            }
            let mut mats: Vec<Matrix> = net
                .layers()
                .iter()
                .flat_map(|l| l.gradients().into_iter().cloned())
                .collect();
            mats.push(Matrix::full(1, 1, local_loss));
            let bytes = allreduce_bytes(&mats);
            let reduced = rec.span("collectives.allreduce", NONE, bytes, || {
                handle.allreduce(mats)
            })?;
            rec.span("gnn.step", NONE, 0, || {
                let (loss, grads) = reduced.split_last().expect("loss entry present");
                let mut cursor = 0;
                for layer in net.layers_mut() {
                    let count = layer.gradients().len();
                    layer.set_gradients(&grads[cursor..cursor + count]);
                    cursor += count;
                }
                net.step(ctx.cfg.lr);
                epoch_loss += loss[(0, 0)];
            });
            pool.recycle(blocks);
        }
        losses.push(epoch_loss);
    }
    rec.set_epoch(NONE);
    // Final full-graph forward: cached halo for layer 0, barriered
    // allgather for the rest.
    let halo = HaloExchange::build(info, rank, ctx.cache);
    let lg = handle.local_graph();
    let mut h = features.clone();
    for (l, layer) in net.layers_mut().iter_mut().enumerate() {
        let li = l as i32;
        let full = if l == 0 {
            rec.span("featcache.halo_gather", li, 0, || {
                halo_gather(handle, &h, &halo, mine)
            })?
        } else {
            rec.span("runtime.allgather", li, 0, || {
                handle.graph_allgather_with(ExecStrategy::Barriered, &h)
            })?
        };
        let agg = rec.span("gnn.aggregate_fwd", li, 0, || {
            aggregate(kind, &lg.graph, &full, lg.num_local)
        });
        h = rec.span("gnn.dense_fwd", li, 0, || layer.forward_agg(&h, agg));
    }
    Ok((losses, h))
}
