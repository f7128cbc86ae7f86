(** Social-graph traversal at scale — chained vs. fan-out accesses over
    a Zipf-degree follower graph of 10^6 users on 1024 simulated
    processors (quick mode shrinks both).  See {!Cm_apps.Social_graph}. *)

type workload = Walk | Fof

val measure :
  ?fused:bool ->
  quick:bool ->
  workload ->
  Cm_core.Prelude.access ->
  Cm_machine.Machine.t * Cm_workload.Metrics.t * float
(** [measure ~quick workload access] runs one sweep point and returns
    the machine, the metrics and the minor words allocated across the
    simulation itself (graph construction excluded).  [fused] (default
    [true]) selects the graph's method-site visit path vs the generic
    [scope]/[call] composition (see {!Cm_apps.Social_graph.create});
    both must produce the same machine digest. *)

val plan : ?quick:bool -> unit -> Plan.t

val run : ?quick:bool -> unit -> unit
