let name = "AES-128"
let block_size = 16
let key_size = 16

(* On the modelled Tofino, the ten AES rounds do not fit in one
   pipeline traversal; the prototype would resubmit. We charge five
   passes (two rounds per traversal), matching the order of magnitude
   of published P4 AES implementations. *)
let passes = 5

(* GF(2^8) arithmetic with the AES reduction polynomial x^8+x^4+x^3+x+1. *)

let xtime b =
  let b = b lsl 1 in
  if b land 0x100 <> 0 then b lxor 0x11B else b

let gmul a b =
  let rec go a b acc =
    if b = 0 then acc
    else
      let acc = if b land 1 <> 0 then acc lxor a else acc in
      go (xtime a) (b lsr 1) acc
  in
  go a b 0

(* Multiplicative inverse by exhaustive search at table-build time;
   the table is built once so O(255) per entry is irrelevant. *)
let ginv a =
  if a = 0 then 0
  else
    let rec find x = if gmul a x = 1 then x else find (x + 1) in
    find 1

let rotl8 x n = ((x lsl n) lor (x lsr (8 - n))) land 0xFF

let sbox =
  lazy
    (Array.init 256 (fun x ->
         let b = ginv x in
         b lxor rotl8 b 1 lxor rotl8 b 2 lxor rotl8 b 3 lxor rotl8 b 4
         lxor 0x63))

let inv_sbox =
  lazy
    (let s = Lazy.force sbox in
     let inv = Array.make 256 0 in
     Array.iteri (fun i v -> inv.(v) <- i) s;
     inv)

type key = { round_keys : int array array (* 11 round keys of 16 bytes *) }

let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1B; 0x36 |]

let expand_key raw =
  if String.length raw <> key_size then
    invalid_arg "Aes128.expand_key: need a 16-byte key";
  let s = Lazy.force sbox in
  (* Words are 4 bytes; AES-128 expands 4 key words into 44. *)
  let w = Array.make_matrix 44 4 0 in
  for i = 0 to 3 do
    for j = 0 to 3 do
      w.(i).(j) <- Char.code raw.[(4 * i) + j]
    done
  done;
  for i = 4 to 43 do
    let temp = Array.copy w.(i - 1) in
    let temp =
      if i mod 4 = 0 then begin
        (* RotWord then SubWord then Rcon. *)
        let t = [| temp.(1); temp.(2); temp.(3); temp.(0) |] in
        let t = Array.map (fun b -> s.(b)) t in
        t.(0) <- t.(0) lxor rcon.((i / 4) - 1);
        t
      end
      else temp
    in
    for j = 0 to 3 do
      w.(i).(j) <- w.(i - 4).(j) lxor temp.(j)
    done
  done;
  let round_keys =
    Array.init 11 (fun r ->
        Array.init 16 (fun k -> w.((4 * r) + (k / 4)).(k mod 4)))
  in
  { round_keys }

let add_round_key state rk =
  for i = 0 to 15 do
    state.(i) <- state.(i) lxor rk.(i)
  done

let sub_bytes box state =
  for i = 0 to 15 do
    state.(i) <- box.(state.(i))
  done

(* State is stored in input order: state.(r + 4c) would be the FIPS
   column-major layout; we keep the flat input order state.(4c + r)
   and express row shifts on that layout. Byte index of row r,
   column c is 4c + r. *)

let shift_rows state =
  let g r c = state.((4 * c) + r) in
  let out = Array.make 16 0 in
  for c = 0 to 3 do
    for r = 0 to 3 do
      out.((4 * c) + r) <- g r ((c + r) mod 4)
    done
  done;
  Array.blit out 0 state 0 16

let inv_shift_rows state =
  let g r c = state.((4 * c) + r) in
  let out = Array.make 16 0 in
  for c = 0 to 3 do
    for r = 0 to 3 do
      out.((4 * c) + r) <- g r ((c - r + 4) mod 4)
    done
  done;
  Array.blit out 0 state 0 16

let mix_columns state =
  for c = 0 to 3 do
    let b = 4 * c in
    let a0 = state.(b) and a1 = state.(b + 1) in
    let a2 = state.(b + 2) and a3 = state.(b + 3) in
    state.(b) <- gmul a0 2 lxor gmul a1 3 lxor a2 lxor a3;
    state.(b + 1) <- a0 lxor gmul a1 2 lxor gmul a2 3 lxor a3;
    state.(b + 2) <- a0 lxor a1 lxor gmul a2 2 lxor gmul a3 3;
    state.(b + 3) <- gmul a0 3 lxor a1 lxor a2 lxor gmul a3 2
  done

let inv_mix_columns state =
  for c = 0 to 3 do
    let b = 4 * c in
    let a0 = state.(b) and a1 = state.(b + 1) in
    let a2 = state.(b + 2) and a3 = state.(b + 3) in
    state.(b) <- gmul a0 14 lxor gmul a1 11 lxor gmul a2 13 lxor gmul a3 9;
    state.(b + 1) <- gmul a0 9 lxor gmul a1 14 lxor gmul a2 11 lxor gmul a3 13;
    state.(b + 2) <- gmul a0 13 lxor gmul a1 9 lxor gmul a2 14 lxor gmul a3 11;
    state.(b + 3) <- gmul a0 11 lxor gmul a1 13 lxor gmul a2 9 lxor gmul a3 14
  done

let check_block b =
  if String.length b <> block_size then invalid_arg "Aes128: block must be 16 bytes"

let state_of_string s = Array.init 16 (fun i -> Char.code s.[i])

let string_of_state st =
  String.init 16 (fun i -> Char.chr (st.(i) land 0xFF))

(* AES is the A2 resubmit baseline, not the default cipher, so its
   in-place entry point may allocate its working state. *)
let encrypt_into k buf off =
  let s = Lazy.force sbox in
  let st = Array.init 16 (fun i -> Char.code (Bytes.get buf (off + i))) in
  add_round_key st k.round_keys.(0);
  for r = 1 to 9 do
    sub_bytes s st;
    shift_rows st;
    mix_columns st;
    add_round_key st k.round_keys.(r)
  done;
  sub_bytes s st;
  shift_rows st;
  add_round_key st k.round_keys.(10);
  Array.iteri (fun i v -> Bytes.set buf (off + i) (Char.chr (v land 0xFF))) st

let encrypt_block k block =
  check_block block;
  let buf = Bytes.of_string block in
  encrypt_into k buf 0;
  Bytes.unsafe_to_string buf

let decrypt_block k block =
  check_block block;
  let s = Lazy.force inv_sbox in
  let st = state_of_string block in
  add_round_key st k.round_keys.(10);
  inv_shift_rows st;
  sub_bytes s st;
  for r = 9 downto 1 do
    add_round_key st k.round_keys.(r);
    inv_mix_columns st;
    inv_shift_rows st;
    sub_bytes s st
  done;
  add_round_key st k.round_keys.(0);
  string_of_state st
