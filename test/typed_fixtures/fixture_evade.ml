(* Module-alias evasion: the syntactic raw-send rule greps for
   [Network.send] / [Cm_machine.Network.send] and cannot see [N.send];
   the typed pass resolves the path through the alias table.  The
   acceptance test asserts the syntactic pass misses V7 and the typed
   pass catches it. *)

module N = Cm_machine.Network

(* V7: raw network send hidden behind a local module alias. *)
let evade net ~src ~dst = ignore (N.send net ~src ~dst ~words:4 ~kind:"sneaky" (fun () -> ()))

(* V8: mutable payload crossing the transport — sender and receiver
   both hold a reference to the same record. *)
type req = { mutable seen : int; id : int }

let read_req r = r.seen + r.id

let leak t (k : req Cm_machine.Transport.kind) ~dst =
  Cm_machine.Transport.post t k ~dst ~words:2 { seen = 0; id = 1 }
