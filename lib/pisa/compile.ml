module Bitbuf = Dip_bitbuf.Bitbuf
open Dip_core

type t = {
  registry : Registry.t;
  header : Header.t;
  keys : Opkey.t list; (* router-side operations, in execution order *)
  shape : string; (* bytes that must match: fn_num, param, FN defs *)
}

let shape_bytes buf (header : Header.t) =
  let s = Bitbuf.to_string buf in
  (* fn_num byte, the 16-bit parameter word, and the FN definition
     region — everything that fixes the preset slices. The hop limit
     and next-header bytes are allowed to vary. *)
  String.concat ""
    [
      String.sub s 1 1;
      String.sub s 3 2;
      String.sub s Header.basic_size (header.Header.fn_num * Fn.size);
    ]

let compile ~registry ~template =
  match Packet.parse template with
  | Error e -> Error e
  | Ok view ->
      let header = view.Packet.header in
      let rec resolve i acc =
        if i = Array.length view.Packet.fns then Ok (List.rev acc)
        else
          let fn = view.Packet.fns.(i) in
          if fn.Fn.tag = Fn.Host then resolve (i + 1) acc
          else if Registry.supports registry fn.Fn.key then
            resolve (i + 1) (fn.Fn.key :: acc)
          else if Engine.mandatory fn.Fn.key then
            Error
              (Printf.sprintf "cannot compile: %s unsupported"
                 (Opkey.name fn.Fn.key))
          else resolve (i + 1) acc
      in
      (match resolve 0 [] with
      | Error e -> Error e
      | Ok keys ->
          Ok { registry; header; keys; shape = shape_bytes template header })

let fn_count t = List.length t.keys
let keys t = t.keys

let matches t buf =
  Bitbuf.length buf >= Header.header_length t.header
  && String.equal t.shape (shape_bytes buf t.header)

(* The shape check is the switch's; the execution is the engine's one
   Algorithm-1 loop over the plan its program cache holds. *)
let run t env ~now ~ingress buf =
  if not (matches t buf) then Engine.Dropped "shape-mismatch"
  else fst (Engine.process ~registry:t.registry env ~now ~ingress buf)

let estimate t ?alg ?parallel config =
  Cost.estimate config ?alg ?parallel
    ~header_bytes:(Header.header_length t.header)
    t.keys
