(** Chaitin–Briggs graph colouring over the interference graph. The
    *colour choice* (which free cell) is delegated to a {!Policy}
    chooser — that choice is irrelevant to correctness but decisive for
    the thermal map, which is the paper's point. *)

open Tdfa_ir
open Tdfa_floorplan

type outcome = {
  assignment : Assignment.t;  (** colours for the non-spilled variables *)
  spilled : Var.Set.t;  (** variables that could not be coloured *)
  optimistic_picks : int;
      (** simplify steps that found no low-degree node and removed a
          spill candidate optimistically *)
}

val run :
  Interference.t ->
  Layout.t ->
  policy:Policy.t ->
  weights:(Var.t -> float) ->
  outcome
(** Hot variables (by weight) are selected first so they receive the
    policy's preferred cells; spill candidates are picked by lowest
    weight/degree ratio, ties going to the smaller [Var.compare]
    variable.

    [weights] is called once per node. Simplify is a worklist over
    mutable degree counters: O((V + E) log V), plus O(V) for each
    optimistic pick. The low-degree order is exact on (weight,
    variable), which matches a 1e-12-tolerant weight comparison because
    the allocator's weights are integer-valued
    ({!Alloc.default_weights}). *)
