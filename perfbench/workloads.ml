(* The benchmark's three workloads.  Each is a closed loop of simulated
   requesters with think time 0 (the paper's setting), run sequentially
   on one machine (one domain, [~shards:1]).  [setup] builds machine and
   app from the seed; the simulator then draws the workload driver's
   request stream from per-thread random streams seeded by the machine.

   After [Driver.run] stops at the horizon, [drain] lets every in-flight
   request finish (requesters stop issuing once past the horizon), so
   the app invariants hold at quiescence and the run's outcome is a
   deterministic function of the seed. *)

open Cm_engine
open Cm_machine
open Cm_apps
module Driver = Cm_workload.Driver
module Scheme = Cm_experiments.Scheme

type phase = Machine_phase | Apps_phase | Preload_phase

(* Wraps each setup call into a layer; the traced run records a span. *)
type span = { span : 'a. phase -> (unit -> 'a) -> 'a }

let untraced = { span = (fun _ f -> f ()) }

type t = {
  machine : Machine.t;
  spec : Driver.spec;
  request : int -> unit Thread.t;
  check : full:bool -> (unit, string) result;
      (* app invariants at quiescence; [full] adds the costly whole-table
         checks the timed repetitions skip *)
  model : Cm_workload.Metrics.t -> string;  (* the model-accuracy line *)
}

let names = [ "counting-cp"; "btree-sm"; "dht-zipf-rpc" ]

let stat m name = Stats.get m.Machine.stats name

let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e

let expect what got want =
  if got = want then Ok () else Error (Printf.sprintf "%s: got %d, expected %d" what got want)

(* --- counting-cp: the Fig. 2 cell ------------------------------------- *)

let counting ~seed ~engine span =
  let scheme = Scheme.Cp { hw = false; repl = false } in
  let balancer_procs = 24 and requesters = 32 in
  let machine, env =
    span.span Machine_phase (fun () ->
        let m =
          Machine.create ~seed ~engine ~shards:1 ~n_procs:(balancer_procs + requesters)
            ~costs:(Scheme.costs scheme) ()
        in
        (m, Sysenv.make m))
  in
  let cn =
    span.span Apps_phase (fun () -> Counting_network.create env (Scheme.counting_mode scheme))
  in
  let w = Counting_network.width cn in
  let traversals =
    Array.init w (fun wire -> Thread.ignore_m (Counting_network.traverse cn ~input_wire:wire))
  in
  (* Each request enters on a wire drawn from the requester's stream. *)
  let request _i c k = traversals.(Rng.int (Thread.Frame.rng c) w) c k in
  let check ~full:_ =
    let n = Counting_network.tokens_delivered cn in
    let values = Array.of_list (Counting_network.values_issued cn) in
    Array.sort Int.compare values;
    let* () = expect "values issued" (Array.length values) n in
    let* () =
      if Array.for_all Fun.id (Array.mapi (fun i v -> i = v) values) then Ok ()
      else Error "counter values are not the gap-free range 0..n-1"
    in
    let* () =
      if Counting_network.satisfies_step_property cn then Ok ()
      else Error "step property violated"
    in
    (* Every migration and every scope return sends exactly one message. *)
    let* () =
      expect "migrate messages vs rt.migrations"
        (stat machine "net.messages.migrate")
        (stat machine "rt.migrations")
    in
    expect "migrate_return messages vs rt.scope_returns"
      (stat machine "net.messages.migrate_return")
      (stat machine "rt.scope_returns")
  in
  let model (m : Cm_workload.Metrics.t) =
    Printf.sprintf
      "counting-cp: CP %.3f ops/1000cyc at 32 requesters. The paper gives Fig. 2 only as a \
       chart, so no error figure; EXPERIMENTS.md checks CP (5.12) > RPC (3.28) at 32 \
       requesters."
      m.throughput
  in
  {
    machine;
    spec =
      {
        Driver.requesters;
        first_proc = balancer_procs;
        think = 0;
        warmup = 20_000;
        horizon = 24_000_000;
      };
    request;
    check;
    model;
  }

(* --- btree-sm: the Table 1/2 SM cell ---------------------------------- *)

let btree ~seed ~engine span =
  let node_procs = 48 and requesters = 16 and n_keys = 10_000 and key_space = 1_000_000 in
  let machine, env =
    span.span Machine_phase (fun () ->
        let m =
          Machine.create ~seed ~engine ~shards:1 ~n_procs:(node_procs + requesters)
            ~costs:(Scheme.costs Scheme.Sm) ()
        in
        (m, Sysenv.make m))
  in
  let tree =
    span.span Apps_phase (fun () ->
        let rng = Rng.create ~seed:(seed + 7) in
        let seen = Hashtbl.create n_keys in
        while Hashtbl.length seen < n_keys do
          Hashtbl.replace seen (Rng.int rng key_space) ()
        done;
        Btree.create env ~mode:(Scheme.btree_mode Scheme.Sm) ~fanout:100 ~fill:0.7
          ~placement_seed:(seed + 13)
          ~node_procs:(Array.init node_procs Fun.id)
          ~keys:(List.of_seq (Hashtbl.to_seq_keys seen))
          ())
  in
  let inserted = ref 0 in
  (* 50% lookups, 50% inserts of uniformly drawn keys. *)
  let request _i c k =
    let r = Thread.Frame.rng c in
    let key = Rng.int r key_space in
    if Rng.float r 1.0 < 0.5 then Btree.lookup tree key c (fun _ -> k ())
    else
      Btree.insert tree key c (fun added ->
          if added then incr inserted;
          k ())
  in
  let check ~full:_ =
    let* () = Btree.check_invariants tree in
    let* () = expect "keys in tree" (List.length (Btree.all_keys tree)) (n_keys + !inserted) in
    (* Every read or write miss is answered by exactly one data message. *)
    expect "coh_data messages vs read+write misses"
      (stat machine "net.messages.coh_data")
      (stat machine "coh.read_miss" + stat machine "coh.write_miss")
  in
  let model (m : Cm_workload.Metrics.t) =
    Printf.sprintf
      "btree-sm: SM %.3f ops/1000cyc vs paper Table 1 SM 1.837 (model error %+.0f%%; \
       EXPERIMENTS.md records 3.365)."
      m.throughput
      (100. *. ((m.throughput /. 1.837) -. 1.))
  in
  {
    machine;
    spec =
      {
        Driver.requesters;
        first_proc = node_procs;
        think = 0;
        warmup = 50_000;
        horizon = 1_500_000;
      };
    request;
    check;
    model;
  }

(* --- dht-zipf-rpc: the full dht_zipf geometry ------------------------- *)

let dht ~seed ~engine span =
  let node_procs = 960 and requesters = 64 and keys = 1_000_000 in
  let machine, env =
    span.span Machine_phase (fun () ->
        let m =
          Machine.create ~seed ~engine ~shards:1 ~n_procs:(node_procs + requesters)
            ~costs:Costs.software ()
        in
        (m, Sysenv.make m))
  in
  let table =
    span.span Apps_phase (fun () ->
        Dht.create env ~buckets:65_536 ~bucket_capacity:64 ~fused:true
          ~mode:(Dht.Messaging Cm_core.Prelude.Rpc)
          ~node_procs:(Array.init node_procs Fun.id)
          ())
  in
  (* Key k starts bound to [k + seed]; every put rebinds it to
     [k + seed + 1], so a get may see exactly those two values. *)
  span.span Preload_phase (fun () ->
      for k = 0 to keys - 1 do
        Dht.preload table ~key:k ~value:(k + seed)
      done);
  let zipf = Zipf.create ~s:1.3 ~n:keys in
  let put_keys = ref [] in
  let was_put = Bytes.make keys '\000' in
  let bad_gets = ref 0 in
  (* 80% gets / 20% puts on Zipf-popular keys.  The get continuation is
     built once per requester (the driver passes the same [k] every
     iteration), as in the dht_zipf experiment. *)
  let request _i =
    let key_in_flight = ref 0 in
    let cached = ref None in
    fun c k ->
      let on_get =
        match !cached with
        | Some (k0, f) when k0 == k -> f
        | _ ->
          let f v =
            (match v with
            | Some x when x - !key_in_flight - seed = 0 || x - !key_in_flight - seed = 1 -> ()
            | _ -> incr bad_gets);
            k ()
          in
          cached := Some (k, f);
          f
      in
      let r = Thread.Frame.rng c in
      let key = Zipf.sample zipf r in
      if Rng.int r 10 < 8 then begin
        key_in_flight := key;
        Dht.get table key c on_get
      end
      else begin
        if Bytes.get was_put key = '\000' then begin
          Bytes.set was_put key '\001';
          put_keys := key :: !put_keys
        end;
        Dht.put table ~key ~value:(key + seed + 1) c k
      end
  in
  let check ~full =
    let peek_ok k =
      Dht.peek table k = Some (k + seed + if Bytes.get was_put k = '\000' then 0 else 1)
    in
    let* () = expect "gets that saw a wrong value" !bad_gets 0 in
    let* () =
      match List.find_opt (fun k -> not (peek_ok k)) !put_keys with
      | None -> Ok ()
      | Some k -> Error (Printf.sprintf "put key %d holds the wrong value" k)
    in
    (* Spot-check: 4096 keys drawn from the seed. *)
    let rng = Rng.create ~seed:(seed + 29) in
    let* () =
      let bad = ref (-1) in
      for _ = 1 to 4096 do
        let k = Rng.int rng keys in
        if not (peek_ok k) then bad := k
      done;
      if !bad < 0 then Ok () else Error (Printf.sprintf "key %d holds the wrong value" !bad)
    in
    let* () = if full then expect "table size" (Dht.size table) keys else Ok () in
    (* Each RPC sends one request and one reply; after the drain none is
       in flight. *)
    let* () =
      expect "rpc messages vs rt.rpc_calls"
        (stat machine "net.messages.rpc")
        (stat machine "rt.rpc_calls")
    in
    let* () =
      expect "rpc_reply messages vs rt.rpc_calls"
        (stat machine "net.messages.rpc_reply")
        (stat machine "rt.rpc_calls")
    in
    expect "transport messages in flight" (Transport.inflight_total (Machine.transport machine)) 0
  in
  let model (m : Cm_workload.Metrics.t) =
    Printf.sprintf
      "dht-zipf-rpc: RPC %.3f ops/1000cyc; unvalidated (an extension with no reference value)."
      m.throughput
  in
  {
    machine;
    spec =
      {
        Driver.requesters;
        first_proc = node_procs;
        think = 0;
        warmup = 1_600_000;
        horizon = 8_000_000;
      };
    request;
    check;
    model;
  }

let setup name ~seed ~engine span =
  match name with
  | "counting-cp" -> counting ~seed ~engine span
  | "btree-sm" -> btree ~seed ~engine span
  | "dht-zipf-rpc" -> dht ~seed ~engine span
  | _ -> invalid_arg ("unknown workload " ^ name)

(* Run the remaining in-flight requests to completion. *)
let drain t = Machine.run t.machine
