(* Allocation regression guards.  Minor-heap allocation is deterministic
   for a given build, so a word count is an exact check, not a timing:

   - whole-run ceilings on four experiment cells, each bracketed with
     [Gc.minor_words] (one warm run, then the mean over [reps] runs;
     [Gc.minor_words] reads the allocation pointer, so even a short run
     reports its exact figure);
   - the per-object method-site tables against the generic scope/call
     composition they fuse: identical machine digests, and for the DHT
     at least 10x fewer minor words per operation across the
     simulation.

   The ceilings are calibrated for the default build (the release
   profile that dune-workspace selects, compiled without -opaque).
   Cross-module inlining removes allocations that an -opaque build still
   makes, so a build that silently loses it fails the social_graph
   ceiling. *)

open Cm_experiments

let reps = 4

let minor_words_per_run thunk =
  thunk ();
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    thunk ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int reps

let cp = Scheme.Cp { hw = false; repl = false }

(* (name, ceiling in minor words per run, run).  Each ceiling sits about
   1.1x above the measured figure (2.229e4 / 6.202e5 / 1.614e5 / 1.365e4
   on OCaml 5.1, default build; an -opaque build measures 2.243e4 /
   6.335e5 / 1.614e5 / 2.014e4): tight enough that one extra allocation
   per call on a hot path fails, e.g. a fresh thread context per RPC
   server thread moves dht_zipf to 1.94e5. *)
let ceilings =
  [
    ( "fig2 CP, 32 requesters",
      2.5e4,
      fun () ->
        ignore
          (Counting_run.run cp
             { Counting_run.default with requesters = 32; horizon = 60_000; warmup = 10_000 }) );
    ( "table1 CP, think 0",
      6.8e5,
      fun () ->
        ignore
          (Btree_run.run cp { Btree_run.default with think = 0; horizon = 60_000; warmup = 10_000 })
    );
    ( "dht_zipf quick RPC s=1.3",
      1.75e5,
      fun () ->
        ignore (Dht_zipf.measure ~quick:true (Cm_apps.Dht.Messaging Cm_core.Prelude.Rpc) 1.3) );
    ( "social_graph quick walk migrate",
      1.5e4,
      fun () ->
        ignore (Social_bench.measure ~quick:true Social_bench.Walk Cm_core.Prelude.Migrate) );
  ]

let test_ceiling (name, ceiling, run) =
  Alcotest.test_case name `Quick (fun () ->
      let words = minor_words_per_run run in
      Printf.printf "%s: %.4e minor words/run (ceiling %.2e)\n" name words ceiling;
      if not (words > 0.) then Alcotest.failf "%s: no minor words counted" name;
      if words > ceiling then
        Alcotest.failf "%s: %.4e minor words/run exceeds the ceiling %.2e" name words ceiling)

(* One fused and one generic run of the same cell: the digests must
   agree, and [min_ratio] (when given) bounds generic/fused simulation
   words per op from below. *)
let test_fused name ?min_ratio measure =
  Alcotest.test_case name `Quick (fun () ->
      let per_op ~fused =
        let machine, metrics, words = measure ~fused in
        let ops = max 1 metrics.Cm_workload.Metrics.ops in
        (Cm_machine.Machine.digest machine, words /. float_of_int ops)
      in
      let fused_digest, fused_wpo = per_op ~fused:true in
      let generic_digest, generic_wpo = per_op ~fused:false in
      Printf.printf "%s: fused %.2f, generic %.2f minor words/op\n" name fused_wpo generic_wpo;
      Alcotest.(check string) "fused and generic digests" generic_digest fused_digest;
      match min_ratio with
      | Some r when fused_wpo *. r > generic_wpo ->
        Alcotest.failf "%s: fused %.2f minor words/op is not %.0fx below generic %.2f" name
          fused_wpo r generic_wpo
      | Some _ | None -> ())

let () =
  Alcotest.run "alloc"
    [
      ("ceilings", List.map test_ceiling ceilings);
      ( "fused",
        [
          test_fused "dht_zipf quick migrate" ~min_ratio:10. (fun ~fused ->
              Dht_zipf.measure ~quick:true ~fused
                (Cm_apps.Dht.Messaging Cm_core.Prelude.Migrate)
                1.3);
          test_fused "social_graph quick walk migrate" (fun ~fused ->
              Social_bench.measure ~quick:true ~fused Social_bench.Walk
                Cm_core.Prelude.Migrate);
        ] );
    ]
