module Bitbuf = Dip_bitbuf.Bitbuf
module Field = Dip_bitbuf.Field
module Mac2em = Dip_crypto.Cbc_mac.Make (Dip_crypto.Even_mansour)
module MacAes = Dip_crypto.Cbc_mac.Make (Dip_crypto.Aes128)

type alg = EM2 | AES

(* The one MAC path: every tag below is computed by [mac_into] over a
   byte range, in place in the packet wherever the protocol allows. *)
let mac_into ~alg ~key ~src ~src_off ~len ~dst ~dst_off =
  match alg with
  | EM2 -> Mac2em.mac_into (Mac2em.expand_key key) ~src ~src_off ~len ~dst ~dst_off
  | AES -> MacAes.mac_into (MacAes.expand_key key) ~src ~src_off ~len ~dst ~dst_off

let mac ?(alg = EM2) ~key msg =
  let tag = Bytes.create 16 in
  mac_into ~alg ~key ~src:(Bytes.unsafe_of_string msg) ~src_off:0
    ~len:(String.length msg) ~dst:tag ~dst_off:0;
  Bytes.unsafe_to_string tag

(* A fixed public key turns the MAC into an unkeyed compression
   function standing in for a hash; see DESIGN.md substitutions. *)
let hash_key = "opt-data-hash-k0"

let hash_payload payload = mac ~alg:EM2 ~key:hash_key payload

(* Byte offsets within the OPT region, from Header's bit layout. *)
let span_len = Header.mac_span_field.Field.len_bits / 8
let pvf_off = Header.pvf_field.Field.off_bits / 8
let tag_len = Header.pvf_field.Field.len_bits / 8
let opv_off hop = (Header.opv_field hop).Field.off_bits / 8

let source_init ?(alg = EM2) buf ~base ~hops ~session_id ~timestamp ~dest_key ~payload =
  Header.set_data_hash buf ~base (hash_payload payload);
  (* Clear the reserved upper half of the session-id field, then set
     the id itself. *)
  Bitbuf.set_field buf
    (Field.v ~off_bits:((8 * base) + 128) ~len_bits:64)
    (String.make 8 '\000');
  Header.set_session_id buf ~base session_id;
  Header.set_timestamp buf ~base timestamp;
  (* The seed PVF: the data hash MACed under the destination's key. *)
  let b = Bitbuf.to_bytes buf in
  mac_into ~alg ~key:dest_key ~src:b ~src_off:base ~len:tag_len ~dst:b
    ~dst_off:(base + pvf_off);
  for i = 1 to hops do
    Header.set_opv buf ~base i (String.make 16 '\000')
  done

let mac_update ?(alg = EM2) buf ~base ~hop ~key =
  let b = Bitbuf.to_bytes buf in
  mac_into ~alg ~key ~src:b ~src_off:base ~len:span_len ~dst:b
    ~dst_off:(base + opv_off hop)

let mark_update ?(alg = EM2) buf ~base ~key =
  let b = Bitbuf.to_bytes buf in
  mac_into ~alg ~key ~src:b ~src_off:(base + pvf_off) ~len:tag_len ~dst:b
    ~dst_off:(base + pvf_off)

let router_update ?alg buf ~base ~hop ~key =
  mac_update ?alg buf ~base ~hop ~key;
  mark_update ?alg buf ~base ~key

type failure = Bad_data_hash | Bad_opv of int | Bad_pvf

let pp_failure fmt = function
  | Bad_data_hash -> Format.pp_print_string fmt "data hash mismatch"
  | Bad_opv i -> Format.fprintf fmt "OPV %d mismatch" i
  | Bad_pvf -> Format.pp_print_string fmt "PVF mismatch"

(* Constant-time comparison of two [tag_len]-byte ranges; no early
   exit. Raises [Invalid_argument] if either range is out of bounds. *)
let ct_equal a aoff b boff =
  let diff = ref 0 in
  for i = 0 to tag_len - 1 do
    diff :=
      !diff lor (Char.code (Bytes.get a (aoff + i)) lxor Char.code (Bytes.get b (boff + i)))
  done;
  !diff = 0

let verify ?(alg = EM2) buf ~base ~hops ~session_keys ~dest_key ~payload =
  if List.length session_keys <> hops then
    invalid_arg "Opt.Protocol.verify: need one session key per hop";
  let b = Bitbuf.to_bytes buf in
  (* [span] is the F_MAC input with the running PVF in its PVF slot;
     [tag] receives each recomputed tag. *)
  let span = Bitbuf.sub_bytes buf ~pos:base ~len:span_len in
  let tag = Bytes.create tag_len in
  let payload_ok =
    match payload with
    | None -> true
    | Some p -> ct_equal span 0 (Bytes.unsafe_of_string (hash_payload p)) 0
  in
  if not payload_ok then Error Bad_data_hash
  else begin
    (* Replay the chain from the seed PVF. *)
    mac_into ~alg ~key:dest_key ~src:span ~src_off:0 ~len:tag_len ~dst:span
      ~dst_off:pvf_off;
    let rec go hop = function
      | [] -> if ct_equal span pvf_off b (base + pvf_off) then Ok () else Error Bad_pvf
      | key :: rest ->
          mac_into ~alg ~key ~src:span ~src_off:0 ~len:span_len ~dst:tag ~dst_off:0;
          if not (ct_equal tag 0 b (base + opv_off hop)) then Error (Bad_opv hop)
          else begin
            mac_into ~alg ~key ~src:span ~src_off:pvf_off ~len:tag_len ~dst:span
              ~dst_off:pvf_off;
            go (hop + 1) rest
          end
    in
    go 1 session_keys
  end
