open Cm_machine
open Cm_memory
open Cm_runtime
open Cm_core
open Thread.Infix

type mode = Messaging of Prelude.access | Adaptive | Shared_memory

let mode_name = function
  | Messaging Prelude.Rpc -> "rpc"
  | Messaging Prelude.Migrate -> "migrate"
  | Adaptive -> "adaptive"
  | Shared_memory -> "shared_memory"

(* CPU cost of searching/updating a bucket of [n] entries. *)
let bucket_work n = 40 + (6 * n)

(* Bucket layout, shared by every representation: word 0 = entry count,
   then (key, value) pairs.  The messaging/adaptive reprs hold it as one
   flat int array per bucket — the object's payload — that starts with
   room for [initial_pairs] pairs and doubles, up to the capacity, when
   an append finds it full.  A put that overwrites a key allocates
   nothing.  The shared-memory repr holds the same layout in simulated
   coherent memory, at capacity. *)
let off_count = 0

let off_pairs = 1

(* A full-geometry dht_zipf table averages ~15 pairs per bucket, so
   preallocating the default capacity of 64 left three quarters of
   every block dead.  Starting at 16 pairs, most such buckets never
   grow: every replaced block is garbage the major GC would otherwise
   still be sweeping when the simulation starts. *)
let initial_pairs = 16

type bucket = int array

type repr =
  | Msg of {
      rt : Runtime.t;
      access : Prelude.access;
      objs : bucket Prelude.obj array;
      (* The fused method-site table (one [Runtime.msite] per method):
         the steady-state get/put path over these is allocation-free.
         [fused = false] keeps the generic [scope]/[call] composition —
         the reference arm test/test_alloc.ml holds the fused path
         against (same digest, >= 10x fewer words per op). *)
      fused : bool;
      get_ms : int option Runtime.msite;
      put_ms : unit Runtime.msite;
      sum_ms : int Runtime.msite;
    }
  | Adapt of {
      ad : Adaptive.t;
      objs : bucket Prelude.obj array;
      get_site : Adaptive.site;
      put_site : Adaptive.site;
      scan_site : Adaptive.site;
    }
  | Sm of { mem : Shmem.t; bases : Shmem.addr array; locks : Lock.t array; capacity : int }

type t = { env : Sysenv.t; buckets : int; capacity : int; repr : repr }

let n_buckets t = t.buckets

let space t = Prelude.space t.env.Sysenv.prelude

(* The [land max_int] only changes the one hash [abs] cannot make
   non-negative, [min_int] (the hash of key [min_int] alone), to 0. *)
let bucket_of_key t key = (abs (key * 2654435761) land max_int) mod t.buckets

(* ------------------------------------------------------------------ *)
(* Flat-bucket primitives                                             *)
(* ------------------------------------------------------------------ *)

let bkt_count (b : bucket) = b.(off_count)

(* Slot index of [key], or -1.  The scan recursion lives at top level:
   an inner [let rec] would close over [b]/[key]/[n] and allocate ~6
   minor words per lookup — on the path every get/put/preload takes. *)
let rec bkt_find_from (b : bucket) key n s =
  if s >= n then -1
  else if b.(off_pairs + (2 * s)) = key then s
  else bkt_find_from b key n (s + 1)

let bkt_find (b : bucket) key = bkt_find_from b key b.(off_count) 0

let bkt_set (b : bucket) s value = b.(off_pairs + (2 * s) + 1) <- value

let bkt_append (b : bucket) key value =
  let n = b.(off_count) in
  b.(off_pairs + (2 * n)) <- key;
  b.(off_pairs + (2 * n) + 1) <- value;
  b.(off_count) <- n + 1

(* The bucket's current payload.  Growth replaces it, so every body
   reads it here, at the home when it runs — a bucket captured on the
   requester may be dead by the time the request arrives. *)
let bucket_at space obj : bucket = Obj.obj (Objspace.state space (Objspace.id_of_int obj))

(* A full block: raise at the capacity, else double (capped) and make
   the copy the object's payload.  Out of line so [bkt_insert]'s room
   check stays a compare and the three stores of [bkt_append]. *)
let[@inline never] bkt_grow space obj capacity (b : bucket) key value ~full =
  let n = bkt_count b in
  if n >= capacity then failwith full
  else begin
    (* lint: allow hot-alloc amortized doubling, bounded by the capacity: at most log2(capacity / initial_pairs) copies per bucket, none once a bucket has stopped growing *)
    let g = Array.make (off_pairs + (2 * min capacity (2 * n))) 0 in
    Array.blit b 0 g 0 (Array.length b);
    Objspace.set_state space (Objspace.id_of_int obj) (Obj.repr g);
    bkt_append g key value
  end

(* Append a new key to bucket [b], the payload of object [obj]. *)
let bkt_insert space obj capacity (b : bucket) key value ~full =
  if off_pairs + (2 * bkt_count b) < Array.length b then bkt_append b key value
  else bkt_grow space obj capacity b key value ~full

(* ------------------------------------------------------------------ *)
(* Messaging bodies (run at the bucket's home)                        *)
(* ------------------------------------------------------------------ *)

(* Each body takes the bucket's object id, its context and its
   continuation explicitly, so the bucket — and the count behind the
   [bucket_work] charge — is read when the body runs at the home, not
   when the body value is built on the requester: by arrival the count
   may be stale and the block itself replaced by growth.  The fused
   frame bodies below read it at the same points. *)
let method_get space key obj c k =
  (let* () = Thread.compute (bucket_work (bkt_count (bucket_at space obj))) in
   let b = bucket_at space obj in
   match bkt_find b key with
   | -1 -> Thread.return None
   | s -> Thread.return (Some b.(off_pairs + (2 * s) + 1)))
    c k

let method_put space capacity key value obj c k =
  (let* () = Thread.compute (bucket_work (bkt_count (bucket_at space obj))) in
   let b = bucket_at space obj in
   (match bkt_find b key with
   | -1 -> bkt_insert space obj capacity b key value ~full:"Dht.put: bucket full"
   | s -> bkt_set b s value);
   Thread.return ())
    c k

let method_sum space obj c k =
  (let* () = Thread.compute (bucket_work (bkt_count (bucket_at space obj))) in
   let b = bucket_at space obj in
   let n = bkt_count b in
   let acc = ref 0 in
   for s = 0 to n - 1 do
     acc := !acc + b.(off_pairs + (2 * s) + 1)
   done;
   Thread.return !acc)
    c k

(* ------------------------------------------------------------------ *)
(* Fused method-site bodies                                           *)
(* ------------------------------------------------------------------ *)

(* The frame twins of the messaging bodies above: same bucket reads,
   same [bucket_work] charge at the same point, expressed as static
   steps over the method-site registers so a steady-state get/put
   allocates nothing (the [Some value] of a successful get aside).
   The per-site step closures below are built once per table. *)

let ms_bucket space c = bucket_at space (Runtime.msite_obj c)

let get_frame_body space =
  let done_ c =
    let b = ms_bucket space c in
    match bkt_find b (Runtime.msite_arg_a c) with
    | -1 -> Runtime.msite_finish c None
    | s -> Runtime.msite_finish c (Some b.(off_pairs + (2 * s) + 1))
  in
  fun c ->
    let b = ms_bucket space c in
    Thread.Frame.hold_then c (bucket_work (bkt_count b)) done_

let put_frame_body space capacity =
  let done_ c =
    let b = ms_bucket space c in
    let key = Runtime.msite_arg_a c in
    (match bkt_find b key with
    | -1 ->
      bkt_insert space (Runtime.msite_obj c) capacity b key (Runtime.msite_arg_b c)
        ~full:"Dht.put: bucket full"
    | s -> bkt_set b s (Runtime.msite_arg_b c));
    Runtime.msite_finish c ()
  in
  fun c ->
    let b = ms_bucket space c in
    Thread.Frame.hold_then c (bucket_work (bkt_count b)) done_

let sum_frame_body space =
  let done_ c =
    let b = ms_bucket space c in
    let n = bkt_count b in
    let acc = ref 0 in
    for s = 0 to n - 1 do
      acc := !acc + b.(off_pairs + (2 * s) + 1)
    done;
    Runtime.msite_finish c !acc
  in
  fun c ->
    let b = ms_bucket space c in
    Thread.Frame.hold_then c (bucket_work (bkt_count b)) done_

(* ------------------------------------------------------------------ *)
(* Construction                                                       *)
(* ------------------------------------------------------------------ *)

let create env ?(buckets = 64) ?(bucket_capacity = 64) ?(fused = true) ~mode ~node_procs () =
  if buckets <= 0 then invalid_arg "Dht.create: buckets must be positive";
  if Array.length node_procs = 0 then invalid_arg "Dht.create: no node processors";
  let home i = node_procs.(i mod Array.length node_procs) in
  let p = env.Sysenv.prelude in
  let space = Prelude.space p in
  let make_buckets () =
    Array.init buckets (fun i ->
        Prelude.make_obj p ~home:(home i)
          (Array.make (off_pairs + (2 * min initial_pairs bucket_capacity)) 0 : bucket))
  in
  let repr =
    match mode with
    | Messaging access ->
      let rt = Sysenv.runtime env in
      Msg
        {
          rt;
          access;
          objs = make_buckets ();
          fused;
          get_ms =
            Runtime.msite rt ~access ~space ~args_words:8 ~result_words:2
              ~frame_body:(get_frame_body space)
              ~cps_body:(fun ~obj ~a ~b:_ -> method_get space a obj);
          put_ms =
            Runtime.msite rt ~access ~space ~args_words:8 ~result_words:2
              ~frame_body:(put_frame_body space bucket_capacity)
              ~cps_body:(fun ~obj ~a ~b -> method_put space bucket_capacity a b obj);
          sum_ms =
            Runtime.msite rt ~access ~space ~args_words:8 ~result_words:2
              ~frame_body:(sum_frame_body space)
              ~cps_body:(fun ~obj ~a:_ ~b:_ -> method_sum space obj);
        }
    | Adaptive ->
      let ad = Adaptive.create (Sysenv.runtime env) ~explore:6 () in
      Adapt
        {
          ad;
          objs = make_buckets ();
          get_site = Adaptive.site ad ~name:"dht.get";
          put_site = Adaptive.site ad ~name:"dht.put";
          scan_site = Adaptive.site ad ~name:"dht.range_sum";
        }
    | Shared_memory ->
      let mem = Sysenv.mem env in
      Sm
        {
          mem;
          bases =
            Array.init buckets (fun i ->
                Shmem.alloc mem ~home:(home i) ~words:(off_pairs + (2 * bucket_capacity)));
          locks = Array.init buckets (fun i -> Lock.create mem ~home:(home i));
          capacity = bucket_capacity;
        }
  in
  { env; buckets; capacity = bucket_capacity; repr }

(* ------------------------------------------------------------------ *)
(* Operations                                                         *)
(* ------------------------------------------------------------------ *)

let obj_home p objs i = Prelude.obj_home p objs.(i)

let msg_call p rt ~access (objs : bucket Prelude.obj array) i body =
  Runtime.scope rt ~result_words:2
    (Runtime.call rt ~access ~home:(obj_home p objs i) ~args_words:8 ~result_words:2
       (body (objs.(i) :> int)))

let adapt_call p ad ~site (objs : bucket Prelude.obj array) i body =
  Adaptive.scope ad
    (Adaptive.call ad ~site ~home:(obj_home p objs i) ~args_words:8 ~result_words:2
       (body (objs.(i) :> int)))

(* Shared-memory bucket search: scan the pair area under the bucket
   lock, reading every key it passes. *)
let sm_find mem base ~count ~key =
  let rec go i =
    if i >= count then Thread.return None
    else
      let* k = Shmem.read mem (base + off_pairs + (2 * i)) in
      if k = key then Thread.return (Some i) else go (i + 1)
  in
  go 0

let sm_get mem locks bases t key =
  let i = bucket_of_key t key in
  let base = bases.(i) in
  Lock.with_lock locks.(i) (fun () ->
      let* count = Shmem.read mem (base + off_count) in
      let* slot = sm_find mem base ~count ~key in
      let* () = Thread.compute (bucket_work count) in
      match slot with
      | None -> Thread.return None
      | Some s ->
        let* v = Shmem.read mem (base + off_pairs + (2 * s) + 1) in
        Thread.return (Some v))

let sm_put mem locks bases capacity t ~key ~value =
  let i = bucket_of_key t key in
  let base = bases.(i) in
  Lock.with_lock locks.(i) (fun () ->
      let* count = Shmem.read mem (base + off_count) in
      let* slot = sm_find mem base ~count ~key in
      let* () = Thread.compute (bucket_work count) in
      match slot with
      | Some s -> Shmem.write mem (base + off_pairs + (2 * s) + 1) value
      | None ->
        if count >= capacity then failwith "Dht.put: bucket full"
        else
          let* () = Shmem.write mem (base + off_pairs + (2 * count)) key in
          let* () = Shmem.write mem (base + off_pairs + (2 * count) + 1) value in
          Shmem.write mem (base + off_count) (count + 1))

let sm_sum_bucket mem locks bases i =
  let base = bases.(i) in
  Lock.with_lock locks.(i) (fun () ->
      let* count = Shmem.read mem (base + off_count) in
      let* () = Thread.compute (bucket_work count) in
      let rec go s acc =
        if s >= count then Thread.return acc
        else
          let* v = Shmem.read mem (base + off_pairs + (2 * s) + 1) in
          go (s + 1) (acc + v)
      in
      go 0 0)

(* [get]/[put] take their context and continuation as explicit
   parameters: call sites that supply everything (the rewritten
   requester loops) compile to one saturated call, so the fused path
   builds no intermediate monad closure per operation. *)
let get t key c k =
  match t.repr with
  | Msg { rt; access; objs; fused; get_ms; _ } ->
    let i = bucket_of_key t key in
    if fused then Runtime.msite_scoped get_ms ~obj:(objs.(i) :> int) ~a:key ~b:0 c k
    else msg_call t.env.Sysenv.prelude rt ~access objs i (method_get (space t) key) c k
  | Adapt { ad; objs; get_site; _ } ->
    adapt_call t.env.Sysenv.prelude ad ~site:get_site objs (bucket_of_key t key)
      (method_get (space t) key) c k
  | Sm { mem; bases; locks; _ } -> sm_get mem locks bases t key c k

let put t ~key ~value c k =
  match t.repr with
  | Msg { rt; access; objs; fused; put_ms; _ } ->
    let i = bucket_of_key t key in
    if fused then Runtime.msite_scoped put_ms ~obj:(objs.(i) :> int) ~a:key ~b:value c k
    else
      msg_call t.env.Sysenv.prelude rt ~access objs i
        (method_put (space t) t.capacity key value) c k
  | Adapt { ad; objs; put_site; _ } ->
    adapt_call t.env.Sysenv.prelude ad ~site:put_site objs (bucket_of_key t key)
      (method_put (space t) t.capacity key value) c k
  | Sm { mem; bases; locks; capacity } -> sm_put mem locks bases capacity t ~key ~value c k

let range_sum t ~first_bucket ~n_buckets =
  if n_buckets <= 0 then invalid_arg "Dht.range_sum: empty range";
  let bucket_at j = (first_bucket + j) mod t.buckets in
  let p = t.env.Sysenv.prelude in
  match t.repr with
  | Msg { rt; access; objs; fused; sum_ms; _ } ->
    Runtime.scope rt ~result_words:2
      (let rec go j acc =
         if j >= n_buckets then Thread.return acc
         else
           let i = bucket_at j in
           let* s =
             if fused then Runtime.msite_call sum_ms ~obj:(objs.(i) :> int) ~a:0 ~b:0
             else
               Runtime.call rt ~access ~home:(obj_home p objs i) ~args_words:8 ~result_words:2
                 (method_sum (space t) (objs.(i) :> int))
           in
           go (j + 1) (acc + s)
       in
       go 0 0)
  | Adapt { ad; objs; scan_site; _ } ->
    Adaptive.scope ad
      (let rec go j acc =
         if j >= n_buckets then Thread.return acc
         else
           let i = bucket_at j in
           let* s =
             Adaptive.call ad ~site:scan_site ~home:(obj_home p objs i) ~args_words:8
               ~result_words:2
               (method_sum (space t) (objs.(i) :> int))
           in
           go (j + 1) (acc + s)
       in
       go 0 0)
  | Sm { mem; bases; locks; _ } ->
    let rec go j acc =
      if j >= n_buckets then Thread.return acc
      else
        let* s = sm_sum_bucket mem locks bases (bucket_at j) in
        go (j + 1) (acc + s)
    in
    go 0 0

(* ------------------------------------------------------------------ *)
(* Direct access (not simulated)                                      *)
(* ------------------------------------------------------------------ *)

(* [preload]/[peek] bypass the simulation: million-entry tables are
   built (and spot-checked) in real time before the clock starts, not
   one simulated put at a time. *)

let preload t ~key ~value =
  let i = bucket_of_key t key in
  match t.repr with
  | Msg { objs; _ } | Adapt { objs; _ } ->
    let obj = (objs.(i) :> int) in
    let b = bucket_at (space t) obj in
    (match bkt_find b key with
    | -1 -> bkt_insert (space t) obj t.capacity b key value ~full:"Dht.preload: bucket full"
    | s -> bkt_set b s value)
  | Sm { mem; bases; _ } ->
    let base = bases.(i) in
    let count = Shmem.peek mem (base + off_count) in
    let rec find s = if s >= count then -1 else if Shmem.peek mem (base + off_pairs + (2 * s)) = key then s else find (s + 1) in
    (match find 0 with
    | -1 ->
      if count >= t.capacity then failwith "Dht.preload: bucket full"
      else begin
        Shmem.poke mem (base + off_pairs + (2 * count)) key;
        Shmem.poke mem (base + off_pairs + (2 * count) + 1) value;
        Shmem.poke mem (base + off_count) (count + 1)
      end
    | s -> Shmem.poke mem (base + off_pairs + (2 * s) + 1) value)

let peek t key =
  let i = bucket_of_key t key in
  match t.repr with
  | Msg { objs; _ } | Adapt { objs; _ } ->
    let b = bucket_at (space t) (objs.(i) :> int) in
    (match bkt_find b key with -1 -> None | s -> Some b.(off_pairs + (2 * s) + 1))
  | Sm { mem; bases; _ } ->
    let base = bases.(i) in
    let count = Shmem.peek mem (base + off_count) in
    let rec find s = if s >= count then -1 else if Shmem.peek mem (base + off_pairs + (2 * s)) = key then s else find (s + 1) in
    (match find 0 with
    | -1 -> None
    | s -> Some (Shmem.peek mem (base + off_pairs + (2 * s) + 1)))

(* ------------------------------------------------------------------ *)
(* Inspection (not simulated)                                         *)
(* ------------------------------------------------------------------ *)

let contents t =
  let pairs =
    match t.repr with
    | Msg { objs; _ } | Adapt { objs; _ } ->
      Array.to_list objs
      |> List.concat_map (fun (o : bucket Prelude.obj) ->
             let b = bucket_at (space t) (o :> int) in
             List.init (bkt_count b)
               (fun s -> (b.(off_pairs + (2 * s)), b.(off_pairs + (2 * s) + 1))))
    | Sm { mem; bases; _ } ->
      Array.to_list bases
      |> List.concat_map (fun base ->
             let count = Shmem.peek mem (base + off_count) in
             List.init count (fun s ->
                 ( Shmem.peek mem (base + off_pairs + (2 * s)),
                   Shmem.peek mem (base + off_pairs + (2 * s) + 1) )))
  in
  List.sort
    (fun (k1, v1) (k2, v2) ->
      match Int.compare k1 k2 with 0 -> Int.compare v1 v2 | c -> c)
    pairs

let size t =
  match t.repr with
  | Msg { objs; _ } | Adapt { objs; _ } ->
    Array.fold_left
      (fun n (o : bucket Prelude.obj) -> n + bkt_count (bucket_at (space t) (o :> int)))
      0 objs
  | Sm { mem; bases; _ } ->
    Array.fold_left (fun n base -> n + Shmem.peek mem (base + off_count)) 0 bases

let adaptive_report t =
  match t.repr with
  | Adapt { ad; get_site; put_site; scan_site; _ } ->
    List.map
      (fun s -> (Adaptive.site_name s, Adaptive.site_estimate ad s, Adaptive.site_samples ad s))
      [ get_site; put_site; scan_site ]
  | Msg _ | Sm _ -> []
