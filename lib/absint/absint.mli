(** Sound steady-temperature bounds without running the RC fixpoint.

    The concrete transfer step ({!Tdfa_core.Transfer.apply}) is, on
    states at or above ambient, a monotone affine map: heating by the
    instruction's duty-cycled access events, linearised leakage,
    explicit diffusion (a convex combination over the 4-connected point
    grid) and proportional cooling. Monotonicity is what this module
    exploits — in both directions:

    {b Upper bound.} Let [H_p] be the largest single-step heat any
    instruction or terminator delivers at point [p] (events summed per
    point, duty = min(1, block_frequency/max_frequency), so loop
    trip-count bounds from {!Tdfa_dataflow.Loops} enter here). Any
    vector [u >= ambient] with [S_H(u) <= u] — a post-fixpoint of the
    abstract step that applies the full heat envelope [H] every step —
    bounds every state the concrete iteration can ever produce, under
    either join, by induction from the all-ambient start. We start from
    the uniform closed-form post-fixpoint
    [e* = (nu*Hmax + (1-kappa)*l0max) / (1 - nu)] with
    [nu = (1-kappa)(1+l1max)] and refine it with descending Jacobi
    sweeps: the monotone step is evaluated once at the sweep-start state
    and min-updated in, which preserves post-fixpointness because the
    state only descends within a sweep. A small epsilon covers float
    rounding.

    {b Lower bound.} For each natural loop not headed at the entry
    block, the heaviest header-to-latch path (by summed duty-weighted
    heat, over the body with back edges removed) yields a composed map
    [G]; at the concrete least fixpoint the header's incoming state
    [in'] satisfies [in' >= G(in')] because the [Max] join includes the
    latch's exit. Iterating [G] from all-ambient therefore
    under-approximates [in'] at every finite step — and one concrete
    sweep advances the header by at least one [G] application (blocks
    are visited in reverse postorder with in-sweep propagation), so
    capping our orbit at [max_iterations - 1] applications also
    under-approximates a run that hits the iteration bound. The analysis
    stops as soon as no per-instruction state moves more than [delta_k],
    which leaves it at most [nu*delta_k/(1-nu)] below the true limit
    (the single-step map is a [nu]-contraction in the max norm and joins
    are nonexpansive); that margin is subtracted from the orbit's
    running per-point maximum over after-instruction states. Lower
    bounds assume the default [Max] join; upper bounds hold for both.

    The interval engine ({!iterate}) runs the same transfer on
    [\[lo, hi\]] endpoint pairs per block with {!Interval.widen} jumping
    loop headers to the [\[ambient, u\]] cap, and reaches its
    post-fixpoint in at most [2 * |blocks|] exit-changing transfers on
    reducible CFGs — the termination property QCheck-tested in
    [test/test_absint.ml], alongside the soundness battery (fixpoint
    peak within bounds on random programs and every example kernel) and
    the Gauss–Seidel monotonicity lemma against
    {!Tdfa_thermal.Rc_flat}. *)

open Tdfa_ir

type stats = {
  points : int;  (** thermal points in the grid *)
  blocks : int;  (** reachable basic blocks *)
  loops : int;  (** loops contributing a lower-bound orbit *)
  gs_sweeps : int;  (** descending envelope sweeps for the cap *)
  orbit_steps : int;  (** total transfer steps across all orbits *)
}

type t = {
  ambient_k : float;
  margin_k : float;
      (** the delta-stopping allowance subtracted from lower bounds:
          [nu * delta_k / (1 - nu)] *)
  lo_cells : float array;  (** per-cell certified lower bound on the
                               fixpoint peak map *)
  hi_cells : float array;  (** per-cell certified upper bound *)
  peak_lo_k : float;  (** lower bound on the peak temperature *)
  peak_hi_k : float;  (** upper bound on the peak temperature *)
  stats : stats;
}

val predict :
  ?obs:Tdfa_obs.Obs.sink ->
  ?delta_k:float ->
  ?max_iterations:int ->
  Tdfa_core.Transfer.config ->
  Func.t ->
  t
(** Certified [\[lo, hi\]] steady-state peak bounds per RF cell, in
    O(instructions + points) — no fixpoint, no per-iteration state.
    [delta_k] and [max_iterations] describe the concrete analysis the
    bounds must be sound against (defaults:
    {!Tdfa_core.Analysis.default_settings}). [obs] (default
    {!Tdfa_obs.Obs.null}) receives an [absint.envelope] span with the
    [gs_sweeps] arg and an [absint.orbit] span with the [loops] and
    [orbit_steps] args. *)

type verdict = Certified_hot | Straddles | Certified_cool

val verdict : hot_k:float -> t -> verdict
(** [Certified_hot] iff [peak_lo_k >= hot_k] (no false positives),
    [Certified_cool] iff [peak_hi_k < hot_k] (no false negatives),
    [Straddles] otherwise — only straddlers need the real fixpoint. *)

val verdict_name : verdict -> string

val certified_hot_cells : hot_k:float -> t -> int list
(** Cells whose lower bound already clears the threshold. *)

val possibly_hot_cells : hot_k:float -> t -> int list
(** Cells whose upper bound clears the threshold. *)

(** {2 The interval engine} *)

type iteration_stats = {
  iter_blocks : int;
  transfers : int;  (** block transfers that changed an exit interval *)
  sweeps : int;
  widenings : int;  (** headers widened to the cap *)
  stable : bool;  (** the final verification sweep changed nothing *)
}

type iteration = {
  exits : (Label.t * Interval.t array) list;
      (** per reachable block, the exit interval per thermal point, in
          reverse postorder *)
  istats : iteration_stats;
}

val iterate : Tdfa_core.Transfer.config -> Func.t -> iteration
(** The per-block interval iteration: endpoint pairs stepped through
    every instruction and terminator, interval-joined at merges, widened
    to the [\[ambient, u\]] cap at loop headers on growth. Sound for the
    [Max] join; terminates in at most [2 * |blocks|] exit-changing
    transfers on reducible CFGs. *)
