let name = "2EM"
let block_size = 16
let key_size = 16
let passes = 1

(* The three 128-bit round keys, flat: k1 at byte 0, k2 at 16, k3 at
   32, each as two big-endian 64-bit lanes. *)
type key = bytes

(* XOR the 16 bytes at [koff] of [k] into the block at [off]. *)
let xor_into k koff buf off =
  Bytes.set_int64_be buf off
    (Int64.logxor (Bytes.get_int64_be buf off) (Bytes.get_int64_be k koff));
  Bytes.set_int64_be buf (off + 8)
    (Int64.logxor (Bytes.get_int64_be buf (off + 8)) (Bytes.get_int64_be k (koff + 8)))

(* Round keys are separated by running the master key through the
   public permutation with distinct constants, so k1, k2, k3 are
   pairwise independent-looking. *)
let expand_key raw =
  if String.length raw <> key_size then
    invalid_arg "Even_mansour.expand_key: need a 16-byte key";
  let k = Bytes.create 48 in
  Bytes.blit_string raw 0 k 0 16;
  Bytes.fill k 16 16 '\001';
  xor_into k 0 k 16;
  Arx_perm.forward_into k 16;
  Bytes.fill k 32 16 '\002';
  xor_into k 16 k 32;
  Arx_perm.forward_into k 32;
  k

let encrypt_into k buf off =
  xor_into k 0 buf off;
  Arx_perm.forward_into buf off;
  xor_into k 16 buf off;
  Arx_perm.forward_into buf off;
  xor_into k 32 buf off

let check_block b =
  if String.length b <> block_size then
    invalid_arg "Even_mansour: block must be 16 bytes"

let encrypt_block k block =
  check_block block;
  let buf = Bytes.of_string block in
  encrypt_into k buf 0;
  Bytes.unsafe_to_string buf

let lanes k koff = (Bytes.get_int64_be k koff, Bytes.get_int64_be k (koff + 8))
let xor (a1, a2) (b1, b2) = (Int64.logxor a1 b1, Int64.logxor a2 b2)

let decrypt_block k block =
  check_block block;
  let z = xor (Arx_perm.of_string block) (lanes k 32) in
  let y = xor (Arx_perm.backward z) (lanes k 16) in
  let x = xor (Arx_perm.backward y) (lanes k 0) in
  Arx_perm.to_string x
