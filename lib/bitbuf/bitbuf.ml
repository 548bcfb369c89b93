type t = { data : bytes }

let create n =
  if n < 0 then invalid_arg "Bitbuf.create: negative size";
  { data = Bytes.make n '\000' }

let of_bytes data = { data }
let of_string s = { data = Bytes.of_string s }
let to_bytes t = t.data
let to_string t = Bytes.to_string t.data

let sub_string t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length t.data then
    invalid_arg
      (Printf.sprintf "Bitbuf.sub_string: byte range [%d,+%d) exceeds %d-byte \
                       buffer"
         pos len (Bytes.length t.data));
  Bytes.sub_string t.data pos len

let sub_bytes t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length t.data then
    invalid_arg
      (Printf.sprintf "Bitbuf.sub_bytes: byte range [%d,+%d) exceeds %d-byte \
                       buffer"
         pos len (Bytes.length t.data));
  Bytes.sub t.data pos len

let length t = Bytes.length t.data
let bit_length t = 8 * Bytes.length t.data
let copy t = { data = Bytes.copy t.data }

let blit ~src ~src_off ~dst ~dst_off ~len =
  Bytes.blit src.data src_off dst.data dst_off len

let check_bits t off len =
  if off < 0 || len < 0 || off + len > bit_length t then
    invalid_arg
      (Printf.sprintf "Bitbuf: bit range [%d,+%d) exceeds %d-byte buffer" off
         len (length t))

let get_bit t i =
  check_bits t i 1;
  let byte = Char.code (Bytes.get t.data (i / 8)) in
  byte land (0x80 lsr (i mod 8)) <> 0

let set_bit t i v =
  check_bits t i 1;
  let pos = i / 8 in
  let mask = 0x80 lsr (i mod 8) in
  let byte = Char.code (Bytes.get t.data pos) in
  let byte = if v then byte lor mask else byte land lnot mask in
  Bytes.set t.data pos (Char.chr (byte land 0xff))

(* Chunked big-endian bit reads/writes: each loop step consumes the
   bits remaining in the current byte, so a 64-bit unaligned field
   costs at most nine byte accesses. *)

let get_uint t (f : Field.t) =
  if f.len_bits > 64 then invalid_arg "Bitbuf.get_uint: field wider than 64";
  check_bits t f.off_bits f.len_bits;
  let acc = ref 0L in
  let i = ref 0 in
  while !i < f.len_bits do
    let bitpos = f.off_bits + !i in
    let byte = Char.code (Bytes.unsafe_get t.data (bitpos / 8)) in
    let in_byte = bitpos mod 8 in
    let take = Int.min (8 - in_byte) (f.len_bits - !i) in
    let chunk = (byte lsr (8 - in_byte - take)) land ((1 lsl take) - 1) in
    acc := Int64.logor (Int64.shift_left !acc take) (Int64.of_int chunk);
    i := !i + take
  done;
  !acc

let set_uint t (f : Field.t) v =
  if f.len_bits > 64 then invalid_arg "Bitbuf.set_uint: field wider than 64";
  check_bits t f.off_bits f.len_bits;
  if
    f.len_bits < 64
    && Int64.shift_right_logical v f.len_bits <> 0L
  then invalid_arg "Bitbuf.set_uint: value exceeds field width";
  let i = ref 0 in
  while !i < f.len_bits do
    let bitpos = f.off_bits + !i in
    let pos = bitpos / 8 in
    let in_byte = bitpos mod 8 in
    let take = Int.min (8 - in_byte) (f.len_bits - !i) in
    let shift_v = f.len_bits - !i - take in
    let chunk =
      Int64.to_int (Int64.shift_right_logical v shift_v) land ((1 lsl take) - 1)
    in
    let shift_b = 8 - in_byte - take in
    let mask = ((1 lsl take) - 1) lsl shift_b in
    let byte = Char.code (Bytes.unsafe_get t.data pos) in
    let byte = byte land lnot mask lor (chunk lsl shift_b) in
    Bytes.unsafe_set t.data pos (Char.unsafe_chr (byte land 0xff));
    i := !i + take
  done

let get_uint8 t off = Bytes.get_uint8 t.data off
let set_uint8 t off v = Bytes.set_uint8 t.data off v
let get_uint16 t off = Bytes.get_uint16_be t.data off
let set_uint16 t off v = Bytes.set_uint16_be t.data off v

let get_uint32 t off = Bytes.get_int32_be t.data off
let set_uint32 t off v = Bytes.set_int32_be t.data off v
let get_uint64 t off = Bytes.get_int64_be t.data off
let set_uint64 t off v = Bytes.set_int64_be t.data off v

let field_byte_width (f : Field.t) = (f.len_bits + 7) / 8

let get_field t (f : Field.t) =
  check_bits t f.off_bits f.len_bits;
  if Field.is_byte_aligned f then
    Bytes.sub_string t.data (f.off_bits / 8) (f.len_bits / 8)
  else begin
    let out = Bytes.make (field_byte_width f) '\000' in
    for j = 0 to f.len_bits - 1 do
      if get_bit t (f.off_bits + j) then begin
        let pos = j / 8 in
        let byte = Char.code (Bytes.get out pos) in
        Bytes.set out pos (Char.chr (byte lor (0x80 lsr (j mod 8))))
      end
    done;
    Bytes.unsafe_to_string out
  end

let check_field_value (f : Field.t) v =
  if String.length v <> field_byte_width f then
    invalid_arg
      (Printf.sprintf "Bitbuf: value is %d bytes but field %s needs %d"
         (String.length v)
         (Format.asprintf "%a" Field.pp f)
         (field_byte_width f));
  let pad = (8 - (f.len_bits mod 8)) mod 8 in
  if pad > 0 then begin
    let last = Char.code v.[String.length v - 1] in
    if last land ((1 lsl pad) - 1) <> 0 then
      invalid_arg "Bitbuf: non-zero padding bits in unaligned field value"
  end

let set_field t (f : Field.t) v =
  check_bits t f.off_bits f.len_bits;
  check_field_value f v;
  if Field.is_byte_aligned f then
    Bytes.blit_string v 0 t.data (f.off_bits / 8) (f.len_bits / 8)
  else
    for j = 0 to f.len_bits - 1 do
      let bit = Char.code v.[j / 8] land (0x80 lsr (j mod 8)) <> 0 in
      set_bit t (f.off_bits + j) bit
    done

let xor_field t (f : Field.t) v =
  check_bits t f.off_bits f.len_bits;
  check_field_value f v;
  if Field.is_byte_aligned f then begin
    let base = f.off_bits / 8 in
    for j = 0 to (f.len_bits / 8) - 1 do
      let b = Char.code (Bytes.get t.data (base + j)) lxor Char.code v.[j] in
      Bytes.set t.data (base + j) (Char.chr b)
    done
  end
  else
    for j = 0 to f.len_bits - 1 do
      let bit = Char.code v.[j / 8] land (0x80 lsr (j mod 8)) <> 0 in
      if bit then set_bit t (f.off_bits + j) (not (get_bit t (f.off_bits + j)))
    done

let equal_field t f v = String.equal (get_field t f) v
let equal a b = Bytes.equal a.data b.data
let pp fmt t = Dip_stdext.Hex.dump fmt (to_string t)
