//! Distributed full-graph GNN training with single-device parity.
//!
//! Integrating DGCL into a GNN system follows the paper's Listing 1: every
//! layer calls `graph_allgather` to refresh remote embeddings, then runs
//! the unchanged single-device layer; the backward pass routes remote
//! gradients back through the reversed plan; model weights are
//! synchronised with an allreduce (the paper delegates this to
//! Horovod/DDP as GNN models are small).
//!
//! Each rank runs one serial loop in which communication and compute
//! strictly alternate. There are two loop bodies: the full-graph body
//! here serves full-batch epochs (one unmasked batch) and exact sampled
//! epochs (every fanout ∞, loss masked per batch); the block body in
//! [`crate::sampling`] serves finite fanouts. Both share
//! [`full_forward`] and [`reduce_and_step`], and the planned backend
//! always runs the pipelined executor.
//!
//! Because all baselines are algorithmically equivalent (§7), the
//! reproduction's correctness criterion is *numerical parity*: distributed
//! training must match single-device training up to floating-point
//! reduction order, which [`train_distributed`] and [`train_single`] let
//! tests verify directly.

use dgcl_gnn::loss::mse_loss;
use dgcl_gnn::{AggKind, Architecture, GnnNetwork};
use dgcl_graph::sample::seed_batches;
use dgcl_graph::CsrGraph;
use dgcl_sim::BackendKind;
use dgcl_tensor::Matrix;

use crate::backend::{backend_for, CommBackend};
use crate::checkpoint::{Checkpoint, CheckpointConfig};
use crate::collectives::{AlgorithmSelector, AllreduceAlgo, AllreducePolicy};
use crate::comm_info::CommInfo;
use crate::error::{ClusterError, RuntimeError};
use crate::fabric::FabricConfig;
use crate::featcache::{CachePolicy, CacheStatsSnapshot, ClusterCache, HaloGatherCtx};
use crate::runtime::{run_cluster_with, DeviceHandle, ExecStrategy};
use crate::sampling::SamplingConfig;

/// Training hyper-parameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// GNN architecture.
    pub arch: Architecture,
    /// Layer widths: input first, one entry per layer output after it.
    pub dims: Vec<usize>,
    /// Number of epochs.
    pub epochs: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Seed for weight initialisation (shared by all replicas).
    pub weight_seed: u64,
    /// Allreduce algorithm override for the gradient buckets. `None`
    /// (the default) lets the cost-model autotuner pick per bucket
    /// size; `Some(algo)` forces one algorithm. Every algorithm is
    /// bitwise identical to the rendezvous reference, so this only
    /// changes wall-clock, never numerics.
    pub allreduce: Option<AllreduceAlgo>,
    /// Aggregation backend override. `None` (the default) runs whatever
    /// [`CommInfo::backend`] recorded — the build policy's verdict;
    /// `Some(kind)` forces a backend for this run (parity tests compare
    /// the same info through both). CAGNET replication must divide the
    /// device count.
    pub backend: Option<BackendKind>,
    /// Mini-batch sampled training. `None` (the default) trains
    /// full-batch; `Some` switches every epoch to seeded, fanout-bounded
    /// mini-batches (see [`crate::sampling::SamplingConfig`]). The
    /// fanout list's length must equal the layer count. With every
    /// fanout ∞ and one batch covering every vertex the sampled run is
    /// bitwise identical to the full-batch one.
    pub sampling: Option<SamplingConfig>,
    /// Hot-vertex remote feature cache override. `None` (the default)
    /// runs the policy recorded at build time
    /// ([`crate::BuildOptions::feature_cache`]); `Some(policy)` forces
    /// one for this run. Caching changes gather *volume* only — every
    /// run is bitwise identical to [`CachePolicy::Off`].
    pub feature_cache: Option<CachePolicy>,
}

impl TrainConfig {
    /// A config with learning rate `1e-3` and a fixed weight seed,
    /// training full-batch on the build-time backend and cache policy.
    pub fn new(arch: Architecture, dims: &[usize], epochs: usize) -> Self {
        Self {
            arch,
            dims: dims.to_vec(),
            epochs,
            lr: 1e-3,
            weight_seed: 17,
            allreduce: None,
            backend: None,
            sampling: None,
            feature_cache: None,
        }
    }
}

/// The outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Global loss after each epoch's forward pass.
    pub epoch_losses: Vec<f32>,
    /// Final output embeddings in global vertex order.
    pub outputs: Matrix,
    /// Cluster-total feature-cache counters, when a cache was active
    /// (`None` for single-device runs and [`CachePolicy::Off`]).
    pub cache: Option<CacheStatsSnapshot>,
}

/// Trains on a single device (the reference the distributed run must
/// match).
///
/// # Panics
///
/// Panics if shapes are inconsistent.
pub fn train_single(
    graph: &CsrGraph,
    features: &Matrix,
    targets: &Matrix,
    cfg: &TrainConfig,
) -> TrainReport {
    let mut net = GnnNetwork::new(cfg.arch, &cfg.dims, cfg.weight_seed);
    let mut losses = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        let out = net.forward(graph, features);
        let (loss, grad) = mse_loss(&out, targets);
        losses.push(loss);
        net.backward(graph, &grad);
        net.step(cfg.lr);
    }
    let outputs = net.forward(graph, features);
    TrainReport {
        epoch_losses: losses,
        outputs,
        cache: None,
    }
}

/// Trains across the simulated devices of `info`, with graph-allgather
/// between layers, reversed-plan gradient scatter, and gradient
/// allreduce before each step.
///
/// # Errors
///
/// [`ClusterError`] if any device fails; no failure mode hangs.
///
/// # Panics
///
/// Panics if `features`/`targets` row counts do not match the graph.
pub fn train_distributed(
    info: &CommInfo,
    graph: &CsrGraph,
    features: &Matrix,
    targets: &Matrix,
    cfg: &TrainConfig,
) -> Result<TrainReport, ClusterError> {
    train_distributed_with(info, graph, features, targets, cfg, FabricConfig::default())
}

/// [`train_distributed`] with an explicit fabric configuration — the
/// chaos suite uses this to inject [`crate::fault::FaultPlan`]s and to
/// shrink the collective deadline.
///
/// The gradient allreduce algorithm resolves in this order:
/// `cfg.allreduce` (explicit override) beats a non-default
/// `fabric_config.allreduce` policy, which beats the default — an
/// [`AlgorithmSelector`] tuned offline for `info`'s topology and
/// device count.
///
/// # Errors
///
/// [`ClusterError`] if any device fails; no failure mode hangs.
///
/// # Panics
///
/// Panics if `features`/`targets` row counts do not match the graph.
pub fn train_distributed_with(
    info: &CommInfo,
    graph: &CsrGraph,
    features: &Matrix,
    targets: &Matrix,
    cfg: &TrainConfig,
    fabric_config: FabricConfig,
) -> Result<TrainReport, ClusterError> {
    train_distributed_resumable(
        info,
        graph,
        features,
        targets,
        cfg,
        fabric_config,
        None,
        None,
    )
}

/// Everything a rank body reads besides its handle: the run's config,
/// where in the global epoch range this attempt runs, the losses of
/// epochs completed before it (from the resumed checkpoint), where rank
/// 0 publishes checkpoints, the initial replica, and the dispatched data
/// and feature cache shared by every rank.
pub(crate) struct RunCtx<'a> {
    pub(crate) cfg: &'a TrainConfig,
    pub(crate) start_epoch: usize,
    pub(crate) end_epoch: usize,
    prior_losses: &'a [f32],
    checkpoints: Option<&'a CheckpointConfig>,
    pub(crate) net0: &'a GnnNetwork,
    pub(crate) graph: &'a CsrGraph,
    pub(crate) features: &'a [Matrix],
    pub(crate) targets: &'a [Matrix],
    /// The active cache, consulted by the block path's layer-0 gathers.
    pub(crate) cache: Option<&'a ClusterCache>,
    /// The cache when the planned backend routes full-graph layer 0
    /// through the cache-aware halo exchange; `None` otherwise.
    pub(crate) halo_cache: Option<&'a ClusterCache>,
}

impl RunCtx<'_> {
    /// Rank 0's post-step hook: publishes the in-memory checkpoint for
    /// every completed epoch and serializes to the sink on its cadence.
    /// Weights are identical on all ranks after the allreduce-then-step,
    /// so one publisher suffices; any crash earlier in the epoch fails
    /// the allreduce and never reaches this point.
    pub(crate) fn publish(&self, rank: usize, net: &GnnNetwork, new_losses: &[f32]) {
        let Some(ck) = self.checkpoints else { return };
        if rank != 0 {
            return;
        }
        let mut losses = self.prior_losses.to_vec();
        losses.extend_from_slice(new_losses);
        let ckpt = Checkpoint::capture(net, losses);
        if let Some(spec) = &ck.spec {
            if spec.every > 0 && ckpt.epochs_done.is_multiple_of(spec.every) {
                spec.sink.store(ckpt.serialize());
            }
        }
        ck.store.publish(ckpt);
    }
}

/// [`train_distributed_with`] that can start from a [`Checkpoint`] and
/// publish new ones — the primitive under [`crate::recovery`]'s elastic
/// driver loop.
///
/// `resume` restores the snapshot's parameters and loss history and
/// runs only the remaining `resume.epochs_done..cfg.epochs` epochs; the
/// returned [`TrainReport`] covers the *full* history (prior losses
/// first), so a resumed run is directly comparable — bitwise — to an
/// uninterrupted one. The checkpoint is partition-independent: it may
/// have been captured on a different device count than `info` has.
///
/// `checkpoints` makes rank 0 publish an in-memory snapshot after every
/// completed epoch, plus a serialized one on the configured cadence.
///
/// # Errors
///
/// [`ClusterError`] if any device fails; no failure mode hangs.
///
/// # Panics
///
/// Panics if `features`/`targets` row counts do not match the graph, if
/// the checkpoint does not fit the configured model shape, or if it has
/// already passed `cfg.epochs`.
#[allow(clippy::too_many_arguments)]
pub fn train_distributed_resumable(
    info: &CommInfo,
    graph: &CsrGraph,
    features: &Matrix,
    targets: &Matrix,
    cfg: &TrainConfig,
    mut fabric_config: FabricConfig,
    resume: Option<&Checkpoint>,
    checkpoints: Option<&CheckpointConfig>,
) -> Result<TrainReport, ClusterError> {
    match cfg.allreduce {
        Some(algo) => fabric_config.allreduce = AllreducePolicy::Fixed(algo),
        // Autotune only over the default policy; an explicit caller
        // policy (chaos tests pinning an algorithm) stands.
        None => {
            if matches!(
                fabric_config.allreduce,
                AllreducePolicy::Fixed(AllreduceAlgo::Rendezvous)
            ) {
                fabric_config.allreduce = AllreducePolicy::Auto(AlgorithmSelector::tune(
                    &info.topology,
                    info.num_devices(),
                    4 * fabric_config.collective_chunk as u64,
                ));
            }
        }
    }
    assert_eq!(features.rows(), graph.num_vertices(), "feature rows");
    assert_eq!(targets.rows(), graph.num_vertices(), "target rows");
    if let Some(scfg) = &cfg.sampling {
        assert_eq!(
            scfg.fanouts.len(),
            cfg.dims.len() - 1,
            "one fanout per layer"
        );
    }
    let backend_kind = cfg.backend.unwrap_or(info.backend);
    if let BackendKind::Cagnet { replication } = backend_kind {
        assert!(
            replication >= 1 && info.num_devices().is_multiple_of(replication),
            "CAGNET replication {replication} must divide {} devices",
            info.num_devices()
        );
    }
    // Resolve the feature-cache policy and materialise the per-rank
    // caches once at the driver; every rank reads the same copies.
    let cache_policy = cfg.feature_cache.unwrap_or(info.feature_cache.policy);
    let cache = ClusterCache::build(info, features, cache_policy);
    // The initial replica is built once at the driver: every rank clones
    // it, so a resumed attempt restores the checkpoint exactly once.
    let mut net0 = GnnNetwork::new(cfg.arch, &cfg.dims, cfg.weight_seed);
    let (start_epoch, prior_losses) = match resume {
        Some(ckpt) => {
            assert!(
                ckpt.epochs_done <= cfg.epochs,
                "checkpoint at epoch {} is past the {}-epoch target",
                ckpt.epochs_done,
                cfg.epochs
            );
            ckpt.restore(&mut net0);
            (ckpt.epochs_done, ckpt.losses.clone())
        }
        None => (0, Vec::new()),
    };
    let per_device_features = info.dispatch_features(features);
    let per_device_targets = info.dispatch_features(targets);
    let run = RunCtx {
        cfg,
        start_epoch,
        end_epoch: cfg.epochs,
        prior_losses: &prior_losses,
        checkpoints,
        net0: &net0,
        graph,
        features: &per_device_features,
        targets: &per_device_targets,
        cache: cache.as_ref(),
        // With a cache active on the planned backend, full-graph layer 0
        // routes through the cache-aware halo exchange.
        halo_cache: cache
            .as_ref()
            .filter(|_| backend_kind == BackendKind::Planned),
    };
    let results = run_cluster_with(info, fabric_config, |handle| {
        let backend = backend_for(backend_kind, ExecStrategy::Pipelined);
        match &cfg.sampling {
            Some(scfg) if !scfg.is_exact() => {
                crate::sampling::device_body_blocks(&handle, &run, backend.as_ref(), scfg)
            }
            exact => device_body_full(&handle, &run, backend.as_ref(), exact.as_ref()),
        }
    })?;
    let mut losses = prior_losses;
    losses.extend_from_slice(&results[0].0);
    let blocks: Vec<Matrix> = results.into_iter().map(|(_, out)| out).collect();
    let outputs = info.collect_outputs(&blocks);
    Ok(TrainReport {
        epoch_losses: losses,
        outputs,
        cache: cache.as_ref().map(ClusterCache::snapshot),
    })
}

/// The gradient with respect to a layer's aggregate input combined with
/// its direct (self-path) contribution: `backward_agg` splits the two,
/// the backend folds remote consumers into the aggregate half, and the
/// direct half lands on the local rows afterwards.
fn fold_direct(mut grad_agg_back: Matrix, direct: Option<Matrix>) -> Matrix {
    if let Some(direct) = direct {
        for v in 0..grad_agg_back.rows() {
            for (g, &x) in grad_agg_back.row_mut(v).iter_mut().zip(direct.row(v)) {
                *g += x;
            }
        }
    }
    grad_agg_back
}

/// One full-graph forward pass: per layer, the backend's aggregate
/// exchange then the unchanged local layer. Layer 0 reads the immutable
/// raw features: with a halo context (planned backend + feature cache),
/// its exchange fills cached rows locally instead.
pub(crate) fn full_forward(
    handle: &DeviceHandle<'_>,
    net: &mut GnnNetwork,
    backend: &dyn CommBackend,
    kind: AggKind,
    features: &Matrix,
    halo: Option<&HaloGatherCtx<'_>>,
) -> Result<Matrix, RuntimeError> {
    let mut h = features.clone();
    for (l, layer) in net.layers_mut().iter_mut().enumerate() {
        let agg = match (l, halo) {
            (0, Some(hctx)) => hctx.agg_forward(handle, &h, kind)?,
            _ => backend.agg_forward(handle, &h, kind)?,
        };
        h = layer.forward_agg(&h, agg);
    }
    Ok(h)
}

/// Allreduces parameter gradients plus the scalar local loss in one
/// call, applies the summed gradients and steps: the per-batch tail of
/// both rank bodies. Returns the global loss.
pub(crate) fn reduce_and_step(
    handle: &DeviceHandle<'_>,
    net: &mut GnnNetwork,
    lr: f32,
    local_loss: f32,
) -> Result<f32, RuntimeError> {
    let mut mats: Vec<Matrix> = net
        .layers()
        .iter()
        .flat_map(|l| l.gradients().into_iter().cloned())
        .collect();
    mats.push(Matrix::full(1, 1, local_loss));
    let reduced = handle.allreduce(mats)?;
    let (loss_mat, grads) = reduced.split_last().expect("loss entry present");
    let mut cursor = 0;
    for layer in net.layers_mut() {
        let count = layer.gradients().len();
        layer.set_gradients(&grads[cursor..cursor + count]);
        cursor += count;
    }
    net.step(lr);
    Ok(loss_mat[(0, 0)])
}

/// The full-graph body: full-batch epochs when `exact` is `None` (one
/// unmasked batch per epoch), exact sampled epochs otherwise (every
/// fanout ∞; one full-neighborhood forward per batch with the loss and
/// its gradient masked to the batch rows). The masked loss zeroes diff
/// rows outside the batch *before* the norm, so with one batch covering
/// every seed it is exactly [`mse_loss`] (same element order, same
/// single accumulator) and the exact path is bitwise the full-batch one.
fn device_body_full(
    handle: &DeviceHandle<'_>,
    run: &RunCtx<'_>,
    backend: &dyn CommBackend,
    exact: Option<&SamplingConfig>,
) -> Result<(Vec<f32>, Matrix), RuntimeError> {
    let rank = handle.rank;
    let agg_kind = run.cfg.arch.agg_kind();
    let features = &run.features[rank];
    let targets = &run.targets[rank];
    let owned = &handle.comm_info().pg.local[rank];
    let halo = HaloGatherCtx::build(handle.comm_info(), rank, run.halo_cache);
    let seeds = match exact {
        Some(scfg) => crate::sampling::exact_seeds(handle, scfg, run.graph)?,
        None => Vec::new(),
    };
    let mut net = run.net0.clone();
    let mut losses = Vec::with_capacity(run.end_epoch - run.start_epoch);
    for epoch in run.start_epoch..run.end_epoch {
        handle.check_epoch_fault(epoch)?;
        // `None` is the whole graph, unmasked; a batch is kept sorted
        // for the mask's binary search.
        let batches: Vec<Option<Vec<_>>> = match exact {
            Some(scfg) => seed_batches(&seeds, scfg.batch_size, scfg.seed, epoch)
                .into_iter()
                .map(|mut batch| {
                    batch.sort_unstable();
                    Some(batch)
                })
                .collect(),
            None => vec![None],
        };
        let mut epoch_loss = 0.0f32;
        for batch in &batches {
            let out = full_forward(handle, &mut net, backend, agg_kind, features, halo.as_ref())?;
            let (local_loss, grad_out) = match batch {
                None => mse_loss(&out, targets),
                Some(batch) => {
                    let mut diff = out.sub(targets);
                    for (j, v) in owned.iter().enumerate() {
                        if batch.binary_search(v).is_err() {
                            diff.row_mut(j).fill(0.0);
                        }
                    }
                    (0.5 * diff.norm_sq(), diff)
                }
            };
            // Backward through the layers, routing each layer's
            // aggregate gradient through the backend's adjoint exchange.
            let mut grad = grad_out;
            for (l, layer) in net.layers_mut().iter_mut().enumerate().rev() {
                let (grad_agg, direct) = layer.backward_agg(&grad);
                if l == 0 && halo.is_some() {
                    // Layer 0's aggregate gradient flows only into the raw
                    // features, which don't learn; every rank skips the
                    // dead exchange together, keeping op counters aligned.
                    break;
                }
                let back = backend.agg_backward(handle, &grad_agg, agg_kind)?;
                grad = fold_direct(back, direct);
            }
            epoch_loss += reduce_and_step(handle, &mut net, run.cfg.lr, local_loss)?;
        }
        losses.push(epoch_loss);
        run.publish(rank, &net, &losses);
    }
    let out = full_forward(handle, &mut net, backend, agg_kind, features, halo.as_ref())?;
    Ok((losses, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm_info::{build_comm_info, BuildOptions};
    use dgcl_graph::Dataset;
    use dgcl_tensor::XavierInit;
    use dgcl_topology::Topology;

    fn parity_case(arch: Architecture, topo: Topology, seed: u64) {
        let graph = Dataset::WikiTalk.generate(0.0005, seed);
        let n = graph.num_vertices();
        let info = build_comm_info(&graph, topo, BuildOptions::default());
        let mut init = XavierInit::new(seed);
        let features = init.features(n, 6);
        let targets = init.features(n, 3);
        let mut cfg = TrainConfig::new(arch, &[6, 5, 3], 3);
        if arch == Architecture::Gin {
            // GIN's sum aggregation explodes on hub-heavy graphs with the
            // default rate; parity only needs stable trajectories.
            cfg.lr = 1e-6;
        }
        let single = train_single(&graph, &features, &targets, &cfg);
        let dist =
            train_distributed(&info, &graph, &features, &targets, &cfg).expect("healthy cluster");
        for (e, (a, b)) in single
            .epoch_losses
            .iter()
            .zip(&dist.epoch_losses)
            .enumerate()
        {
            assert!(
                (a - b).abs() < 1e-2 * a.abs().max(1.0),
                "{arch:?} epoch {e}: single loss {a} vs distributed {b}"
            );
        }
        let diff = single.outputs.max_abs_diff(&dist.outputs);
        assert!(
            diff < 5e-3,
            "{arch:?}: output divergence {diff} after training"
        );
    }

    #[test]
    fn gcn_parity_on_fig6() {
        parity_case(Architecture::Gcn, Topology::fig6(), 11);
    }

    #[test]
    fn commnet_parity_on_fig6() {
        parity_case(Architecture::CommNet, Topology::fig6(), 12);
    }

    #[test]
    fn gin_parity_on_fig6() {
        parity_case(Architecture::Gin, Topology::fig6(), 13);
    }

    #[test]
    fn gcn_parity_on_dgx1() {
        parity_case(Architecture::Gcn, Topology::dgx1(), 14);
    }

    #[test]
    fn sage_parity_on_fig6() {
        parity_case(Architecture::Sage, Topology::fig6(), 15);
    }

    #[test]
    fn loss_decreases_distributed() {
        let graph = Dataset::WebGoogle.generate(0.0005, 21);
        let n = graph.num_vertices();
        let info = build_comm_info(&graph, Topology::fig6(), BuildOptions::default());
        let mut init = XavierInit::new(2);
        let features = init.features(n, 8);
        let targets = init.features(n, 4);
        let mut cfg = TrainConfig::new(Architecture::Gcn, &[8, 6, 4], 5);
        cfg.lr = 5e-4;
        let report =
            train_distributed(&info, &graph, &features, &targets, &cfg).expect("healthy cluster");
        assert!(
            report.epoch_losses.last() < report.epoch_losses.first(),
            "losses: {:?}",
            report.epoch_losses
        );
    }

    #[test]
    fn atomic_and_non_atomic_backward_agree() {
        // The sub-stage split must not change numerics, only scheduling.
        let graph = Dataset::WikiTalk.generate(0.0005, 31);
        let n = graph.num_vertices();
        let mut opts = BuildOptions::default();
        let info_split = build_comm_info(&graph, Topology::fig6(), opts);
        opts.non_atomic = false;
        let info_atomic = build_comm_info(&graph, Topology::fig6(), opts);
        let mut init = XavierInit::new(4);
        let features = init.features(n, 5);
        let targets = init.features(n, 2);
        let cfg = TrainConfig::new(Architecture::Gcn, &[5, 2], 2);
        let a = train_distributed(&info_split, &graph, &features, &targets, &cfg)
            .expect("healthy cluster");
        let b = train_distributed(&info_atomic, &graph, &features, &targets, &cfg)
            .expect("healthy cluster");
        let diff = a.outputs.max_abs_diff(&b.outputs);
        assert!(diff < 1e-4, "substage split changed numerics by {diff}");
    }
}
