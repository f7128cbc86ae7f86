(** A social-graph traversal workload over the flat object space.

    [n] users, each one index in the prelude's object store, with
    CSR adjacency (two flat int arrays) — a million-user graph is four
    int vectors, no per-user records.  Edge targets are Zipf-skewed so
    low-numbered users are celebrity hubs, as in real follower graphs.

    Two traversals exercise the mechanisms differently: {!walk} chains
    remote accesses hop to hop (computation migration's best case — the
    activation follows the edges and returns once), while
    {!friends_of_friends} fans out from one user (isolated accesses,
    where RPC's round trips are no worse).  Walk paths are drawn from
    the walking thread's seeded stream before each visit, so RPC and
    migration traverse identical paths. *)

open Cm_runtime
open Cm_machine

type t

val create :
  Sysenv.t ->
  n:int ->
  ?avg_degree:int ->
  ?skew:float ->
  ?fused:bool ->
  node_procs:int array ->
  seed:int ->
  unit ->
  t
(** [create env ~n ~node_procs ~seed ()] builds the graph and registers
    its [n] users in the object space, homes scattered over
    [node_procs].  Degrees are uniform in [[1, 2*avg_degree)] (default
    average 8); edge targets follow Zipf([skew]) (default 0.8).
    [fused] (default [true]) runs every visit through the graph's
    {!Cm_runtime.Runtime.msite} method-sites — allocation-free steady
    state, digests identical to the generic path; [fused:false] keeps
    the generic [scope]/[call] composition (the reference arm of the
    fused-vs-generic rows in test/test_alloc.ml). *)

val n_users : t -> int

val degree : t -> int -> int

val friend : t -> int -> int -> int
(** [friend t u j] is user [u]'s [j]-th friend. *)

val home : t -> int -> int
(** [home t u] is the processor user [u]'s object lives on. *)

val walk : t -> access:Runtime.access -> start:int -> steps:int -> int Thread.t
(** [walk t ~access ~start ~steps] visits [steps] users following
    random friend edges; returns the sum of visited degrees. *)

val friends_of_friends : t -> access:Runtime.access -> ?fanout:int -> int -> int Thread.t
(** [friends_of_friends t ~access u] visits [u] then its first [fanout]
    (default 8) friends; returns the sum of the friends' degrees. *)

val visit_work : int -> int
(** CPU cycles charged for visiting a user of the given degree. *)
