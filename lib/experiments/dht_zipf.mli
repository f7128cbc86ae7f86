(** Zipf-skewed DHT traffic — the hot-key scenario at production scale.

    Sweeps mechanism (RPC / migration / adaptive) against key-popularity
    skew on a table preloaded with 10^6 keys across 1024 simulated
    processors (quick mode shrinks every axis).  Entries live in the
    flat int-pair buckets, so the million-entry table is one array per
    bucket and the preload bypasses simulated time. *)

val measure :
  ?fused:bool ->
  quick:bool ->
  Cm_apps.Dht.mode ->
  float ->
  Cm_machine.Machine.t * Cm_workload.Metrics.t * float
(** [measure ~quick mode skew] runs one sweep point and returns the
    machine, the metrics and the minor words allocated across the
    simulation itself (table construction and preload excluded).
    [fused] (default [true]) selects the table's method-site path vs
    the generic [scope]/[call] composition (see {!Cm_apps.Dht.create});
    both must produce the same machine digest. *)

val plan : ?quick:bool -> unit -> Plan.t

val run : ?quick:bool -> unit -> unit
