(** Liveness analysis (backward). Two variables interfere — and thus need
    distinct registers — exactly when their live ranges overlap (§2 of the
    paper). *)

open Tdfa_ir

type t
(** Immutable once built: safe to share across domains. *)

val analyze : Func.t -> t
(** Solves the fixpoint, then computes every block's per-instruction
    live sets in one backward pass each, so the queries below are
    constant-time lookups. *)

val live_in : t -> Label.t -> Var.Set.t
(** Variables live before the first instruction of the block. *)

val live_out : t -> Label.t -> Var.Set.t
(** Variables live after the terminator. *)

val live_before_instr : t -> Label.t -> int -> Var.Set.t
val live_after_instr : t -> Label.t -> int -> Var.Set.t
(** Live set before / after body instruction [i] of the block.
    @raise Not_found for a label that is not a block of the function.
    @raise Invalid_argument when [i] is not an index of the body. *)

val max_pressure : t -> int
(** Largest number of simultaneously live variables at any program point —
    the function's register pressure. *)

val iterations : t -> int
