module M = Cbc_mac.Make (Even_mansour)

type key = M.key

let key_of_string s =
  if String.length s <> 16 then invalid_arg "Prf.key_of_string: need 16 bytes";
  M.expand_key s

(* The label is framed with its own length so that (label, input)
   pairs cannot collide across different splits of the same bytes.
   The MAC reads the framing buffer in place. *)
let derive k ~label input =
  let l = String.length label in
  let b = Bytes.create (4 + l + String.length input) in
  Bytes.set_int32_be b 0 (Int32.of_int l);
  Bytes.blit_string label 0 b 4 l;
  Bytes.blit_string input 0 b (4 + l) (String.length input);
  M.mac k (Bytes.unsafe_to_string b)

let derive_int k ~label v =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 v;
  derive k ~label (Bytes.unsafe_to_string b)
