type block = int64 * int64

let rounds = 12

let rotl x n = Int64.logor (Int64.shift_left x n) (Int64.shift_right_logical x (64 - n))
let rotr x n = Int64.logor (Int64.shift_right_logical x n) (Int64.shift_left x (64 - n))

(* Round constants break the symmetry between rounds so that
   [forward] has no fixed structure an attacker could slide. They are
   the first digits of pi interpreted as 64-bit words. *)
let rc =
  [|
    0x243F6A8885A308D3L; 0x13198A2E03707344L; 0xA4093822299F31D0L;
    0x082EFA98EC4E6C89L; 0x452821E638D01377L; 0xBE5466CF34E90C6CL;
    0xC0AC29B7C97C50DDL; 0x3F84D5B5B5470917L; 0x9216D5D98979FB1BL;
    0xD1310BA698DFB5ACL; 0x2FFD72DBD01ADFB7L; 0xB8E1AFED6A267E96L;
  |]

(* One SPECK-like round, applied to the two lanes in place:
   invertible because every step is. The lanes stay in local int64
   refs, which ocamlopt keeps unboxed, so the loop never allocates. *)
let forward_into buf off =
  let a = ref (Bytes.get_int64_be buf off) in
  let b = ref (Bytes.get_int64_be buf (off + 8)) in
  for i = 0 to rounds - 1 do
    a := Int64.logxor (Int64.add (rotr !a 8) !b) rc.(i);
    b := Int64.logxor (rotl !b 3) !a
  done;
  Bytes.set_int64_be buf off !a;
  Bytes.set_int64_be buf (off + 8) !b

let unround i (a, b) =
  let b = rotr (Int64.logxor b a) 3 in
  let a = Int64.logxor a rc.(i) in
  let a = rotl (Int64.sub a b) 8 in
  (a, b)

let forward (hi, lo) =
  let buf = Bytes.create 16 in
  Bytes.set_int64_be buf 0 hi;
  Bytes.set_int64_be buf 8 lo;
  forward_into buf 0;
  (Bytes.get_int64_be buf 0, Bytes.get_int64_be buf 8)

let backward blk =
  let rec go i blk = if i < 0 then blk else go (i - 1) (unround i blk) in
  go (rounds - 1) blk

let of_string s =
  if String.length s <> 16 then invalid_arg "Arx_perm.of_string: need 16 bytes";
  (String.get_int64_be s 0, String.get_int64_be s 8)

let to_string (hi, lo) =
  let b = Bytes.create 16 in
  Bytes.set_int64_be b 0 hi;
  Bytes.set_int64_be b 8 lo;
  Bytes.unsafe_to_string b
