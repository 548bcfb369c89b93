module Make (C : Block.S) = struct
  type key = C.key

  let expand_key = C.expand_key
  let passes = C.passes

  (* The one CBC loop. The chaining state is a per-call block (callers
     on different domains share nothing) that starts as the length
     block: the 64-bit big-endian byte count, zero padded. Prefixing
     (not suffixing) the length makes the encoding prefix-free, which
     is what CBC-MAC needs for variable lengths. The last message
     block is zero padded. The tag is written after the last read of
     [src], so the two ranges may overlap. *)
  let mac_into k ~src ~src_off ~len ~dst ~dst_off =
    let bs = C.block_size in
    if src_off < 0 || len < 0 || src_off > Bytes.length src - len then
      invalid_arg "Cbc_mac.mac_into: source range out of bounds";
    if dst_off < 0 || dst_off > Bytes.length dst - bs then
      invalid_arg "Cbc_mac.mac_into: destination range out of bounds";
    let state = Bytes.make bs '\000' in
    Bytes.set_int64_be state (bs - 8) (Int64.of_int len);
    C.encrypt_into k state 0;
    let pos = ref 0 in
    while !pos < len do
      for j = 0 to min bs (len - !pos) - 1 do
        Bytes.unsafe_set state j
          (Char.unsafe_chr
             (Char.code (Bytes.unsafe_get state j)
             lxor Char.code (Bytes.unsafe_get src (src_off + !pos + j))))
      done;
      C.encrypt_into k state 0;
      pos := !pos + bs
    done;
    Bytes.blit state 0 dst dst_off bs

  let mac k msg =
    let tag = Bytes.create C.block_size in
    mac_into k ~src:(Bytes.unsafe_of_string msg) ~src_off:0
      ~len:(String.length msg) ~dst:tag ~dst_off:0;
    Bytes.unsafe_to_string tag

  let mac_truncated k n msg =
    if n < 1 || n > C.block_size then
      invalid_arg "Cbc_mac.mac_truncated: bad tag length";
    String.sub (mac k msg) 0 n

  let verify k ~tag msg =
    let n = String.length tag in
    if n < 1 || n > C.block_size then false
    else
      let expected = String.sub (mac k msg) 0 n in
      (* Constant-time fold over all bytes; no early exit. *)
      let diff = ref 0 in
      for i = 0 to n - 1 do
        diff := !diff lor (Char.code tag.[i] lxor Char.code expected.[i])
      done;
      !diff = 0
end
