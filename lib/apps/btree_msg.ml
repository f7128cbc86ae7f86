open Cm_engine
open Cm_machine
open Cm_memory
open Cm_runtime
open Cm_core
open Thread.Infix

(* Silence an unused-open warning: Shmem is not used in this mode. *)
module _ = Shmem

type node = {
  is_leaf : bool;
  mutable nkeys : int;
  keys : int array;  (* capacity fanout + 1 *)
  children : int array;  (* object ids; capacity fanout + 1; internal only *)
  mutable right : int;  (* object id, -1 = none *)
  mutable high : int;
}

type anchor = { mutable root : int; mutable height : int }

(* Replicated root content (an immutable snapshot). *)
type snapshot = {
  s_node : int;
  s_level : int;  (** the snapshot node's level (leaves are level 0) *)
  s_leaf : bool;
  s_nkeys : int;
  s_keys : int array;
  s_children : int array;
}

type t = {
  env : Sysenv.t;
  access : Prelude.access;
  fanout : int;
  space : node Objspace.t;
  anchor : anchor;
  anchor_home : int;
  mutable repl : snapshot Replicate.t option;
  replicate_root : bool;
  place_rng : Rng.t;
  node_procs : int array;
  mutable n_splits : int;
  node_init_k : unit Transport.kind;
}

let rt t = Sysenv.runtime t.env

let machine t = t.env.Sysenv.machine

let node t nid = Objspace.state t.space (Objspace.id_of_int nid)

let node_home t nid = Objspace.home t.space (Objspace.id_of_int nid)

(* Cycles of user code per node visit: header checks plus a binary
   search. *)
let visit_work n = 60 + (12 * Btree_node.probes ~nkeys:(max 1 n.nkeys))

(* CPU cycles to allocate and initialize a node at its new home. *)
let node_init_work = 80

let node_words n = (2 * n.nkeys) + 5

let snapshot_words s = (2 * s.s_nkeys) + 5

let snapshot_of nid ~level n =
  {
    s_node = nid;
    s_level = level;
    s_leaf = n.is_leaf;
    s_nkeys = n.nkeys;
    s_keys = Array.sub n.keys 0 n.nkeys;
    s_children = (if n.is_leaf then [||] else Array.sub n.children 0 n.nkeys);
  }

let fresh_node t ~is_leaf =
  {
    is_leaf;
    nkeys = 0;
    keys = Array.make (t.fanout + 1) max_int;
    children = (if is_leaf then [||] else Array.make (t.fanout + 1) (-1));
    right = -1;
    high = max_int;
  }

let place t = t.node_procs.(Rng.int t.place_rng (Array.length t.node_procs))

(* Register a split-off node at a random home and charge the
   initialization message from the splitting node's processor (splits
   run at the node being split, so the sender is the current
   processor). *)
let register_remote t n : int Thread.t =
  let home = place t in
  let nid = (Objspace.register t.space ~home n :> int) in
  t.n_splits <- t.n_splits + 1;
  Stats.incr (machine t).Machine.stats "btree.splits";
  let words = node_words n in
  let* () = Transport.post (Machine.transport (machine t)) t.node_init_k ~dst:home ~words () in
  Thread.return nid

(* ------------------------------------------------------------------ *)
(* Construction from a bulk-load plan                                 *)
(* ------------------------------------------------------------------ *)

(* Plans are compared by physical identity: [build_plan] shares subtree
   values, and structural hashing of large subtrees would be quadratic. *)
module Plan_tbl = Hashtbl.Make (struct
  type t = Btree_node.plan

  let equal = ( == )

  let hash = Hashtbl.hash
end)

let materialize t plan =
  let height = Btree_node.plan_height plan in
  (* Create nodes level by level, leaves first, so children ids exist;
     then chain right links left-to-right within each level. *)
  let ids = Plan_tbl.create 256 in
  for level = 0 to height - 1 do
    let nodes = Btree_node.plan_nodes_at_level plan level in
    let level_ids =
      List.map
        (fun p ->
          let n =
            match p with
            | Btree_node.Leaf { keys; high } ->
              let node = fresh_node t ~is_leaf:true in
              Array.blit keys 0 node.keys 0 (Array.length keys);
              node.nkeys <- Array.length keys;
              node.high <- high;
              node
            | Btree_node.Node { keys; high; children } ->
              let node = fresh_node t ~is_leaf:false in
              Array.blit keys 0 node.keys 0 (Array.length keys);
              node.nkeys <- Array.length keys;
              node.high <- high;
              Array.iteri (fun i c -> node.children.(i) <- Plan_tbl.find ids c) children;
              node
          in
          let nid = (Objspace.register t.space ~home:(place t) n :> int) in
          Plan_tbl.add ids p nid;
          nid)
        nodes
    in
    (* Right links. *)
    let rec chain = function
      | a :: (b :: _ as rest) ->
        (node t a).right <- b;
        chain rest
      | [ _ ] | [] -> ()
    in
    chain level_ids
  done;
  let root_id = Plan_tbl.find ids plan in
  (root_id, height)

let create env ~access ~fanout ~replicate_root ~plan ~node_procs ~placement_seed =
  if fanout < 4 then invalid_arg "Btree_msg.create: fanout must be >= 4";
  if Array.length node_procs = 0 then invalid_arg "Btree_msg.create: no node processors";
  let tp = Machine.transport env.Sysenv.machine in
  (* A split-off node's initialization message: the receiving home runs
     the allocation/initialization work itself (no generic receive
     pipeline — this models the memory-side cost only). *)
  let node_init_k = Transport.kind tp ~recv:Transport.Recv_bare "node_init" in
  Transport.Endpoint.register_all tp ~kind:node_init_k (fun () ->
      Thread.compute node_init_work);
  let t =
    {
      env;
      access;
      fanout;
      space = Objspace.create env.Sysenv.machine;
      anchor = { root = -1; height = 0 };
      anchor_home = node_procs.(0);
      repl = None;
      replicate_root;
      place_rng = Rng.create ~seed:placement_seed;
      node_procs;
      n_splits = 0;
      node_init_k;
    }
  in
  let root_id, height = materialize t plan in
  t.anchor.root <- root_id;
  t.anchor.height <- height;
  if replicate_root then
    t.repl <-
      Some
        (Replicate.create (rt t) ~home:(node_home t root_id) ~words_of:snapshot_words
           (snapshot_of root_id ~level:(height - 1) (node t root_id)));
  t

(* ------------------------------------------------------------------ *)
(* Remote node access                                                 *)
(* ------------------------------------------------------------------ *)

(* A descent's migrating activation carries the key, linkage and its
   path stack; size the message accordingly. *)
let descent_words path_len = 8 + (2 * path_len)

let invoke_node t ?(path_len = 0) nid (m : node -> 'r Thread.t) : 'r Thread.t =
  Runtime.call (rt t) ~access:t.access ~home:(node_home t nid)
    ~args_words:(descent_words path_len) ~result_words:2 (m (node t nid))

(* One search step at a node. *)
type step = Move_right of int | Down of int | Leaf_here

let step_of n key =
  if key > n.high && n.right >= 0 then Move_right n.right
  else if n.is_leaf then Leaf_here
  else Down n.children.(Btree_node.find_child_index ~keys:n.keys ~nkeys:n.nkeys ~key)

(* ------------------------------------------------------------------ *)
(* Lookup                                                             *)
(* ------------------------------------------------------------------ *)

(* Entry point of a descent: the root, or — with a replicated root — a
   child chosen from the local snapshot.  Also reports the entry node's
   level (for root-split handling in [insert]). *)
let start_point t key : (int * int) Thread.t =
  match t.repl with
  | None -> Thread.return (t.anchor.root, t.anchor.height - 1)
  | Some r ->
    let* s = Replicate.read r in
    (* The snapshot may be stale (e.g. taken just after the root node
       split but before the new root was installed): when it cannot
       route [key], descend from the snapshot's node and let the normal
       right-link chasing recover. *)
    if s.s_leaf || s.s_nkeys = 0 || key > s.s_keys.(s.s_nkeys - 1) then
      Thread.return (s.s_node, s.s_level)
    else begin
      let* () = Thread.compute (60 + (12 * Btree_node.probes ~nkeys:s.s_nkeys)) in
      let child =
        s.s_children.(Btree_node.find_child_index ~keys:s.s_keys ~nkeys:s.s_nkeys ~key)
      in
      Thread.return (child, s.s_level - 1)
    end

(* The descent is the natural recursive shared-memory-style program:
   each node visit is an instance method executing at the node's home,
   and the recursive call is itself a remote access.  Under RPC this
   nests calls — replies cascade back through every level, costing the
   root's processor a reply-handling pass per operation.  Under
   computation migration every recursive call is a tail call, so the
   activation simply hops down the tree and the single result message is
   short-circuited to the requester by the enclosing scope. *)
let rec visit_lookup t nid key : bool Thread.t =
  invoke_node t nid (fun n ->
      let* () = Thread.compute (visit_work n) in
      match step_of n key with
      | Leaf_here -> Thread.return (Btree_node.member ~keys:n.keys ~nkeys:n.nkeys ~key)
      | Move_right next | Down next -> visit_lookup t next key)

let lookup t key =
  Runtime.scope (rt t) ~result_words:2
    (let* start, _level = start_point t key in
     visit_lookup t start key)

(* ------------------------------------------------------------------ *)
(* Insert                                                             *)
(* ------------------------------------------------------------------ *)

(* Split [n] (which just overflowed), returning the separator and the
   new right sibling's id.  Runs at [n]'s home, which therefore sends
   the initialization message. *)
let split_node t n : (int * int) Thread.t =
  let keep = Btree_node.split_point ~nkeys:n.nkeys in
  let moved = n.nkeys - keep in
  let sibling = fresh_node t ~is_leaf:n.is_leaf in
  Array.blit n.keys keep sibling.keys 0 moved;
  if not n.is_leaf then Array.blit n.children keep sibling.children 0 moved;
  sibling.nkeys <- moved;
  sibling.high <- n.high;
  sibling.right <- n.right;
  let* new_id = register_remote t sibling in
  n.nkeys <- keep;
  n.high <- n.keys.(keep - 1);
  n.right <- new_id;
  Thread.return (n.high, new_id)

(* Leaf-level insert at node [n]; assumes key <= n.high. *)
let leaf_insert t n key =
  if Btree_node.member ~keys:n.keys ~nkeys:n.nkeys ~key then Thread.return (`Done false)
  else begin
    let pos = Btree_node.insertion_point ~keys:n.keys ~nkeys:n.nkeys ~key in
    Btree_node.insert_at ~keys:n.keys ~nkeys:n.nkeys ~pos key;
    n.nkeys <- n.nkeys + 1;
    let* () = Thread.compute (4 * (n.nkeys - pos)) in
    if n.nkeys > t.fanout then
      let* sep, new_id = split_node t n in
      Thread.return (`Split (sep, new_id, true))
    else Thread.return (`Done true)
  end

(* Insert separator [sep] (new right child [new_child]) into internal
   node [n]; assumes sep <= n.high. *)
let add_separator t n ~sep ~new_child =
  let i = Btree_node.find_child_index ~keys:n.keys ~nkeys:n.nkeys ~key:sep in
  if n.keys.(i) = sep then begin
    (* An equal separator can only be a re-delivered propagation (splits
       of distinct nodes have distinct high keys at one level). *)
    Stats.incr (machine t).Machine.stats "btree.dup_sep";
    Thread.return `Done
  end
  else begin
    (* Old entry (H -> L) at i becomes (sep -> L), (H -> new_child). *)
    Btree_node.insert_at ~keys:n.keys ~nkeys:n.nkeys ~pos:i sep;
    Array.blit n.children i n.children (i + 1) (n.nkeys - i);
    n.children.(i + 1) <- new_child;
    n.nkeys <- n.nkeys + 1;
    let* () = Thread.compute (8 * (n.nkeys - i)) in
    if n.nkeys > t.fanout then
      let* sep2, new2 = split_node t n in
      Thread.return (`Split (sep2, new2))
    else Thread.return `Done
  end

(* After modifying the node that is currently the root, refresh the
   replicated snapshot (runs at the root's home). *)
let refresh_root_snapshot t nid : unit Thread.t =
  match t.repl with
  | Some r when nid = t.anchor.root ->
    Replicate.update r ~access:t.access
      (snapshot_of nid ~level:(t.anchor.height - 1) (node t nid))
  | Some _ | None -> Thread.return ()

(* Move right at one level until [sep] is coverable, then insert the
   separator there.  Returns the landing node and the outcome. *)
let rec add_sep_at t pid ~path_len ~sep ~new_child =
  let* r =
    invoke_node t ~path_len pid (fun n ->
        let* () = Thread.compute (visit_work n) in
        if sep > n.high && n.right >= 0 then Thread.return (`Right n.right)
        else
          let* outcome = add_separator t n ~sep ~new_child in
          Thread.return (`Landed outcome))
  in
  match r with
  | `Right next -> add_sep_at t next ~path_len ~sep ~new_child
  | `Landed outcome ->
    let* () = refresh_root_snapshot t pid in
    Thread.return (pid, outcome)

(* Serialize root splits at the anchor's home processor. *)
let try_root_split t ~left ~sep ~new_child =
  Runtime.call (rt t) ~access:t.access ~home:t.anchor_home ~args_words:8 ~result_words:4
    (let* () = Thread.compute 40 in
     if t.anchor.root = left then begin
       let root = fresh_node t ~is_leaf:false in
       root.keys.(0) <- sep;
       root.keys.(1) <- max_int;
       root.children.(0) <- left;
       root.children.(1) <- new_child;
       root.nkeys <- 2;
       let* rid = register_remote t root in
       t.anchor.root <- rid;
       t.anchor.height <- t.anchor.height + 1;
       Stats.incr (machine t).Machine.stats "btree.root_splits";
       if t.replicate_root then
         t.repl <-
           Some
             (Replicate.create (rt t) ~home:(node_home t rid) ~words_of:snapshot_words
                (snapshot_of rid ~level:(t.anchor.height - 1) root));
       Thread.return `Ok
     end
     else Thread.return (`Stale (t.anchor.root, t.anchor.height)))

(* Descend [steps] levels from [nid] following [sep] (with right moves),
   to locate an ancestor during a stale root split. *)
let rec descend_steps t nid ~sep ~steps =
  if steps = 0 then Thread.return nid
  else
    let* r =
      invoke_node t nid (fun n ->
          let* () = Thread.compute (visit_work n) in
          match step_of n sep with
          | Move_right next -> Thread.return (`Right next)
          | Down next -> Thread.return (`Down next)
          | Leaf_here -> Thread.return `Leaf)
    in
    match r with
    | `Right next -> descend_steps t next ~sep ~steps
    | `Down next -> descend_steps t next ~sep ~steps:(steps - 1)
    | `Leaf -> Thread.return nid

(* Insert a separator for a split that bubbled out of the top of the
   descent: either [left] is the root (split it), or the tree has grown
   and an ancestor at [level + 1] must be located from the current
   root.  When a sibling's root split is still in flight the parent
   level does not exist yet; wait for it and retry. *)
let rec insert_above t ~sep ~new_child ~left ~level =
  let* r = try_root_split t ~left ~sep ~new_child in
  match r with
  | `Ok -> Thread.return ()
  | `Stale (root, height) when height - 1 >= level + 1 ->
    let steps = height - 1 - (level + 1) in
    let* ancestor = descend_steps t root ~sep ~steps in
    if (node t ancestor).is_leaf then begin
      (* Pending propagations routed us below the target level; let
         them land and retry. *)
      Stats.incr (machine t).Machine.stats "btree.propagate_retries";
      let* () = Thread.sleep 500 in
      insert_above t ~sep ~new_child ~left ~level
    end
    else
      let* landed, outcome = add_sep_at t ancestor ~path_len:0 ~sep ~new_child in
      (match outcome with
      | `Done -> Thread.return ()
      | `Split (sep2, new2) ->
        insert_above t ~sep:sep2 ~new_child:new2 ~left:landed ~level:(level + 1))
  | `Stale _ ->
    (* The parent level does not exist yet: the root split that will
       create it (from our left sibling's chain) is still in flight. *)
    Stats.incr (machine t).Machine.stats "btree.propagate_retries";
    let* () = Thread.sleep 500 in
    insert_above t ~sep ~new_child ~left ~level

(* Result of the recursive insert below a node: whether a fresh key was
   added, plus a split that the caller (the parent frame) must absorb —
   [landed] is the node that actually split after right moves. *)
type ins = { added : bool; pending : (int * int * int) option (* sep, new child, landed *) }

let rec visit_insert t nid key : ins Thread.t =
  invoke_node t nid (fun n ->
      let* () = Thread.compute (visit_work n) in
      match step_of n key with
      | Move_right next -> visit_insert t next key
      | Leaf_here ->
        let* outcome = leaf_insert t n key in
        let* () = refresh_root_snapshot t nid in
        (match outcome with
        | `Done added -> Thread.return { added; pending = None }
        | `Split (sep, new_id, added) ->
          Thread.return { added; pending = Some (sep, new_id, nid) })
      | Down child ->
        let* sub = visit_insert t child key in
        (match sub.pending with
        | None -> Thread.return sub
        | Some (sep, new_child, _) ->
          (* This frame is the parent: absorb the child's split at our
             own node (re-reaching its home if the activation has
             migrated away). *)
          let* landed, outcome = add_sep_at t nid ~path_len:0 ~sep ~new_child in
          (match outcome with
          | `Done -> Thread.return { sub with pending = None }
          | `Split (sep2, new2) ->
            Thread.return { added = sub.added; pending = Some (sep2, new2, landed) })))

let insert t key =
  Runtime.scope (rt t) ~result_words:2
    (let* start, start_level = start_point t key in
     let* r = visit_insert t start key in
     match r.pending with
     | None -> Thread.return r.added
     | Some (sep, new_child, landed) ->
       let* () = insert_above t ~sep ~new_child ~left:landed ~level:start_level in
       Thread.return r.added)

(* ------------------------------------------------------------------ *)
(* Inspection (not simulated)                                         *)
(* ------------------------------------------------------------------ *)

let height t = t.anchor.height

let root_home t = node_home t t.anchor.root

let splits t = t.n_splits

let leftmost_leaf t =
  let rec go nid =
    let n = node t nid in
    if n.is_leaf then nid else go n.children.(0)
  in
  go t.anchor.root

let all_keys t =
  let rec walk nid acc =
    let n = node t nid in
    let acc = List.rev_append (List.init n.nkeys (fun i -> n.keys.(i))) acc in
    if n.right >= 0 then walk n.right acc else List.rev acc
  in
  walk (leftmost_leaf t) []

let check_invariants t =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let rec check_node nid ~low ~high_bound =
    let n = node t nid in
    let rec sorted i =
      if i >= n.nkeys - 1 then true else n.keys.(i) < n.keys.(i + 1) && sorted (i + 1)
    in
    if n.nkeys = 0 then fail "node %d empty" nid
    else if not (sorted 0) then fail "node %d keys not sorted" nid
    else if n.high <> high_bound then fail "node %d high %d <> bound %d" nid n.high high_bound
    else if n.nkeys > t.fanout then fail "node %d overfull" nid
    else if n.keys.(0) <= low then fail "node %d key %d below low bound %d" nid n.keys.(0) low
    else if n.is_leaf then Ok ()
    else if n.keys.(n.nkeys - 1) <> n.high then
      fail "internal %d last key %d <> high %d" nid n.keys.(n.nkeys - 1) n.high
    else begin
      let rec children i low =
        if i >= n.nkeys then Ok ()
        else
          match check_node n.children.(i) ~low ~high_bound:n.keys.(i) with
          | Error _ as e -> e
          | Ok () ->
            (* Consecutive children must be linked. *)
            if i + 1 < n.nkeys && (node t n.children.(i)).right <> n.children.(i + 1) then
              fail "node %d: child %d not linked to next sibling" nid n.children.(i)
            else children (i + 1) n.keys.(i)
      in
      children 0 low
    end
  in
  match check_node t.anchor.root ~low:min_int ~high_bound:max_int with
  | Error _ as e -> e
  | Ok () ->
    (* The leaf chain must enumerate keys in ascending order. *)
    let keys = all_keys t in
    let rec ascending = function
      | a :: (b :: _ as rest) -> if a < b then ascending rest else fail "leaf chain unsorted"
      | [ _ ] | [] -> Ok ()
    in
    ascending keys
