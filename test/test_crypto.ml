(* Tests for the crypto substrate: the ARX permutation, 2EM,
   AES-128 (FIPS-197 known-answer vector), CBC-MAC and the PRF. *)

open Dip_crypto

let hex = Dip_stdext.Hex.decode

let test_arx_inverse () =
  let g = Dip_stdext.Prng.create 11L in
  for _ = 1 to 200 do
    let b = (Dip_stdext.Prng.next64 g, Dip_stdext.Prng.next64 g) in
    let b' = Arx_perm.backward (Arx_perm.forward b) in
    Alcotest.(check bool) "backward . forward = id" true (b = b')
  done

let test_arx_not_identity () =
  let b = (0L, 0L) in
  Alcotest.(check bool) "permutes zero block" true (Arx_perm.forward b <> b)

let test_arx_string_roundtrip () =
  let s = "0123456789abcdef" in
  Alcotest.(check string) "roundtrip" s Arx_perm.(to_string (of_string s))

let test_arx_diffusion () =
  (* Flipping one input bit must flip a substantial number of output
     bits (avalanche). We accept anything in [30, 98] of 128. *)
  let base = Arx_perm.forward (0x0123456789ABCDEFL, 0xFEDCBA9876543210L) in
  let flipped = Arx_perm.forward (0x0123456789ABCDEBL, 0xFEDCBA9876543210L) in
  let popcount x =
    let rec go x acc = if x = 0L then acc
      else go (Int64.shift_right_logical x 1)
             (acc + Int64.to_int (Int64.logand x 1L))
    in
    go x 0
  in
  let d =
    popcount (Int64.logxor (fst base) (fst flipped))
    + popcount (Int64.logxor (snd base) (snd flipped))
  in
  Alcotest.(check bool) (Printf.sprintf "avalanche (%d bits)" d) true
    (d >= 30 && d <= 98)

let em_key = Even_mansour.expand_key "em-master-key-16"

let test_em_roundtrip () =
  let g = Dip_stdext.Prng.create 12L in
  for _ = 1 to 100 do
    let block = Bytes.to_string (Dip_stdext.Prng.bytes g 16) in
    Alcotest.(check string) "decrypt . encrypt = id" block
      (Even_mansour.decrypt_block em_key (Even_mansour.encrypt_block em_key block))
  done

let test_em_key_separation () =
  let k2 = Even_mansour.expand_key "em-master-key-17" in
  let block = "0123456789abcdef" in
  Alcotest.(check bool) "different keys, different ciphertexts" true
    (Even_mansour.encrypt_block em_key block
    <> Even_mansour.encrypt_block k2 block)

let test_em_bad_sizes () =
  Alcotest.check_raises "short key"
    (Invalid_argument "Even_mansour.expand_key: need a 16-byte key") (fun () ->
      ignore (Even_mansour.expand_key "short"));
  Alcotest.check_raises "short block"
    (Invalid_argument "Even_mansour: block must be 16 bytes") (fun () ->
      ignore (Even_mansour.encrypt_block em_key "short"))

(* Known-answer vectors, pinned so that a rewrite of the cipher, the
   CBC loop or the PRF framing must keep every output bit-identical. *)
let kat_msg n = String.init n (fun i -> Char.chr (((37 * i) + 11) land 0xff))

let test_em_kat () =
  let enc b = Dip_stdext.Hex.encode (Even_mansour.encrypt_block em_key b) in
  Alcotest.(check string) "zero block" "47cbc5cbd8f63573d40892909d9ab754"
    (enc (String.make 16 '\000'));
  Alcotest.(check string) "ascii block" "3ed8641eab52c32aba247902da14510d"
    (enc "0123456789abcdef")

let test_em_single_pass () =
  Alcotest.(check int) "2EM is single-pass on PISA" 1 Even_mansour.passes

let test_aes_fips197 () =
  (* FIPS-197 Appendix C.1 known-answer test. *)
  let key = Aes128.expand_key (hex "000102030405060708090a0b0c0d0e0f") in
  let pt = hex "00112233445566778899aabbccddeeff" in
  let ct = Aes128.encrypt_block key pt in
  Alcotest.(check string) "FIPS-197 C.1 ciphertext"
    "69c4e0d86a7b0430d8cdb78070b4c55a"
    (Dip_stdext.Hex.encode ct);
  Alcotest.(check string) "decrypts back"
    (Dip_stdext.Hex.encode pt)
    (Dip_stdext.Hex.encode (Aes128.decrypt_block key ct))

let test_aes_sp800_38a () =
  (* NIST SP 800-38A, ECB-AES128.Encrypt, block #1. *)
  let key = Aes128.expand_key (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  Alcotest.(check string) "SP 800-38A block 1"
    "3ad77bb40d7a3660a89ecaf32466ef97"
    (Dip_stdext.Hex.encode
       (Aes128.encrypt_block key (hex "6bc1bee22e409f96e93d7e117393172a")))

let test_aes_roundtrip () =
  let g = Dip_stdext.Prng.create 13L in
  let key = Aes128.expand_key (Bytes.to_string (Dip_stdext.Prng.bytes g 16)) in
  for _ = 1 to 50 do
    let block = Bytes.to_string (Dip_stdext.Prng.bytes g 16) in
    Alcotest.(check string) "decrypt . encrypt = id" block
      (Aes128.decrypt_block key (Aes128.encrypt_block key block))
  done

let test_aes_multi_pass () =
  Alcotest.(check bool) "AES needs resubmission on PISA" true (Aes128.passes > 1)

module Mac2em = Cbc_mac.Make (Even_mansour)
module MacAes = Cbc_mac.Make (Aes128)

let mac_key = Mac2em.expand_key "mac-master-key-1"

let test_mac_deterministic () =
  let m = "the quick brown fox" in
  Alcotest.(check string) "same input, same tag" (Mac2em.mac mac_key m)
    (Mac2em.mac mac_key m)

let test_mac_distinct_messages () =
  Alcotest.(check bool) "tags differ" true
    (Mac2em.mac mac_key "message-a" <> Mac2em.mac mac_key "message-b")

let test_mac_length_extension_guard () =
  (* "a" followed by zero padding must not collide with the padded
     block itself: the length prefix separates them. *)
  let a = Mac2em.mac mac_key "a" in
  let b = Mac2em.mac mac_key ("a" ^ String.make 15 '\000') in
  Alcotest.(check bool) "length-prefixed domains" true (a <> b)

let test_mac_empty_message () =
  Alcotest.(check int) "tag width" 16 (String.length (Mac2em.mac mac_key ""))

let test_mac_truncation () =
  let m = "hotnets.org" in
  let full = Mac2em.mac mac_key m in
  Alcotest.(check string) "prefix" (String.sub full 0 4)
    (Mac2em.mac_truncated mac_key 4 m);
  Alcotest.check_raises "bad length"
    (Invalid_argument "Cbc_mac.mac_truncated: bad tag length") (fun () ->
      ignore (Mac2em.mac_truncated mac_key 17 m))

let test_mac_verify () =
  let m = "payload" in
  let tag = Mac2em.mac_truncated mac_key 16 m in
  Alcotest.(check bool) "accepts valid" true (Mac2em.verify mac_key ~tag m);
  Alcotest.(check bool) "rejects tampered msg" false
    (Mac2em.verify mac_key ~tag "Payload");
  let bad = Bytes.of_string tag in
  Bytes.set bad 0 (Char.chr (Char.code (Bytes.get bad 0) lxor 1));
  Alcotest.(check bool) "rejects tampered tag" false
    (Mac2em.verify mac_key ~tag:(Bytes.to_string bad) m);
  Alcotest.(check bool) "rejects empty tag" false (Mac2em.verify mac_key ~tag:"" m)

let test_mac_kat () =
  (* The OPT data-hash key over the 52-byte F_MAC span. *)
  let m = kat_msg 52 in
  Alcotest.(check string) "2EM" "232fccc7dfd789f796e2ac27eae518b2"
    (Dip_stdext.Hex.encode (Mac2em.mac (Mac2em.expand_key "opt-data-hash-k0") m));
  Alcotest.(check string) "AES" "7b35414c14485306e23cba830a0357c6"
    (Dip_stdext.Hex.encode (MacAes.mac (MacAes.expand_key "opt-data-hash-k0") m))

let test_mac_ciphers_disagree () =
  (* Same raw key bytes, different ciphers: tags must differ, which
     is what makes the A2 ablation a real comparison. *)
  let k2 = MacAes.expand_key "mac-master-key-1" in
  Alcotest.(check bool) "2EM and AES tags differ" true
    (Mac2em.mac mac_key "x" <> MacAes.mac k2 "x")

let test_prf_derivation () =
  let k = Prf.key_of_string "prf-master-key-0" in
  let a = Prf.derive k ~label:"pvf" "session-1" in
  let b = Prf.derive k ~label:"opv" "session-1" in
  let c = Prf.derive k ~label:"pvf" "session-2" in
  Alcotest.(check int) "width" 16 (String.length a);
  Alcotest.(check bool) "labels separate" true (a <> b);
  Alcotest.(check bool) "inputs separate" true (a <> c);
  Alcotest.(check string) "deterministic" a (Prf.derive k ~label:"pvf" "session-1")

let test_prf_label_framing () =
  let k = Prf.key_of_string "prf-master-key-0" in
  (* ("ab","c") and ("a","bc") must not collide. *)
  Alcotest.(check bool) "framing" true
    (Prf.derive k ~label:"ab" "c" <> Prf.derive k ~label:"a" "bc")

let test_prf_int () =
  let k = Prf.key_of_string "prf-master-key-0" in
  Alcotest.(check bool) "distinct ints" true
    (Prf.derive_int k ~label:"s" 1L <> Prf.derive_int k ~label:"s" 2L)

let test_prf_kat () =
  let k = Prf.key_of_string "prf-master-key-0" in
  Alcotest.(check string) "opt-session 42" "309f50c2268daaef986f79456108b5e6"
    (Dip_stdext.Hex.encode (Prf.derive_int k ~label:"opt-session" 42L))

let test_prf_allocation () =
  (* A derivation MACs straight from its framing buffer: the frame,
     the chaining block and the returned key, nothing per block. *)
  let k = Prf.key_of_string "prf-master-key-0" in
  let f () = ignore (Sys.opaque_identity (Prf.derive_int k ~label:"opt-session" 42L)) in
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do f () done;
  let w = (Gc.minor_words () -. w0) /. 1000. in
  if w > 48. then Alcotest.failf "Prf.derive_int: %.1f words/call (gate 48)" w

let test_siphash_reference_vectors () =
  (* Reference vectors from the SipHash paper's test program:
     key = 000102...0f, messages are prefixes of 00 01 02 ... *)
  let k = Siphash.default_key in
  let input n = String.init n Char.chr in
  Alcotest.(check int64) "empty" 0x726fdb47dd0e0e31L (Siphash.hash k (input 0));
  Alcotest.(check int64) "1 byte" 0x74f839c593dc67fdL (Siphash.hash k (input 1));
  Alcotest.(check int64) "8 bytes" 0x93f5f5799a932462L (Siphash.hash k (input 8))

let test_siphash_key_sensitivity () =
  let k2 = Siphash.key_of_string "0123456789abcdef" in
  Alcotest.(check bool) "keys matter" true
    (Siphash.hash Siphash.default_key "dip" <> Siphash.hash k2 "dip")

let test_siphash_hash32 () =
  let h = Siphash.hash32 Siphash.default_key "hotnets.org" in
  Alcotest.(check int32) "stable fold" h
    (Siphash.hash32 Siphash.default_key "hotnets.org")

(* QCheck properties. *)

let prop_em_roundtrip =
  QCheck.Test.make ~name:"2EM: decrypt . encrypt = id" ~count:300
    QCheck.(string_of_size (QCheck.Gen.return 16))
    (fun block ->
      Even_mansour.decrypt_block em_key (Even_mansour.encrypt_block em_key block)
      = block)

let prop_mac_injective_on_samples =
  QCheck.Test.make ~name:"cbc-mac: distinct strings, distinct tags" ~count:300
    QCheck.(pair small_string small_string)
    (fun (a, b) ->
      QCheck.assume (a <> b);
      Mac2em.mac mac_key a <> Mac2em.mac mac_key b)

let prop_mac_verify_accepts =
  QCheck.Test.make ~name:"cbc-mac: verify accepts own tags" ~count:300
    QCheck.small_string
    (fun m -> Mac2em.verify mac_key ~tag:(Mac2em.mac mac_key m) m)

(* [mac_into] over a window of a buffer, written at an offset of
   another, must equal [mac] of the extracted substring, leave every
   other destination byte untouched, and reject out-of-range windows
   with [Invalid_argument] before writing anything. *)
let prop_mac_into_window name mac mac_into =
  let gen =
    QCheck.Gen.(
      let* src = string_size (0 -- 160) in
      let* src_off = -2 -- (String.length src + 2) in
      let* len = -1 -- 100 in
      let* dst = string_size (0 -- 48) in
      let* dst_off = -2 -- String.length dst in
      return (src, src_off, len, dst, dst_off))
  in
  let print (src, src_off, len, dst, dst_off) =
    Printf.sprintf "src %d B, src_off %d, len %d, dst %d B, dst_off %d"
      (String.length src) src_off len (String.length dst) dst_off
  in
  QCheck.Test.make ~name:("cbc-mac " ^ name ^ ": mac_into window = mac of substring")
    ~count:500 (QCheck.make ~print gen)
    (fun (src, src_off, len, dst, dst_off) ->
      let out = Bytes.of_string dst in
      let run () =
        mac_into ~src:(Bytes.of_string src) ~src_off ~len ~dst:out ~dst_off
      in
      let in_range =
        src_off >= 0 && len >= 0 && src_off + len <= String.length src
        && dst_off >= 0 && dst_off + 16 <= String.length dst
      in
      if not in_range then
        (try run (); false with Invalid_argument _ -> true)
        && Bytes.to_string out = dst
      else begin
        run ();
        let tag = mac (String.sub src src_off len) in
        Bytes.sub_string out dst_off 16 = tag
        && Bytes.sub_string out 0 dst_off = String.sub dst 0 dst_off
        && Bytes.sub_string out (dst_off + 16) (String.length dst - dst_off - 16)
           = String.sub dst (dst_off + 16) (String.length dst - dst_off - 16)
      end)

let aes_mac_key = MacAes.expand_key "mac-master-key-1"

let () =
  Alcotest.run "crypto"
    [
      ( "arx",
        [
          Alcotest.test_case "inverse" `Quick test_arx_inverse;
          Alcotest.test_case "not identity" `Quick test_arx_not_identity;
          Alcotest.test_case "string roundtrip" `Quick test_arx_string_roundtrip;
          Alcotest.test_case "diffusion" `Quick test_arx_diffusion;
        ] );
      ( "even-mansour",
        [
          Alcotest.test_case "roundtrip" `Quick test_em_roundtrip;
          Alcotest.test_case "key separation" `Quick test_em_key_separation;
          Alcotest.test_case "bad sizes" `Quick test_em_bad_sizes;
          Alcotest.test_case "known answers" `Quick test_em_kat;
          Alcotest.test_case "single pass" `Quick test_em_single_pass;
          QCheck_alcotest.to_alcotest prop_em_roundtrip;
        ] );
      ( "aes128",
        [
          Alcotest.test_case "FIPS-197 vector" `Quick test_aes_fips197;
          Alcotest.test_case "SP 800-38A vector" `Quick test_aes_sp800_38a;
          Alcotest.test_case "roundtrip" `Quick test_aes_roundtrip;
          Alcotest.test_case "multi pass" `Quick test_aes_multi_pass;
        ] );
      ( "cbc-mac",
        [
          Alcotest.test_case "deterministic" `Quick test_mac_deterministic;
          Alcotest.test_case "distinct messages" `Quick test_mac_distinct_messages;
          Alcotest.test_case "length prefix" `Quick test_mac_length_extension_guard;
          Alcotest.test_case "empty message" `Quick test_mac_empty_message;
          Alcotest.test_case "truncation" `Quick test_mac_truncation;
          Alcotest.test_case "verify" `Quick test_mac_verify;
          Alcotest.test_case "known answers" `Quick test_mac_kat;
          Alcotest.test_case "ciphers disagree" `Quick test_mac_ciphers_disagree;
          QCheck_alcotest.to_alcotest prop_mac_injective_on_samples;
          QCheck_alcotest.to_alcotest prop_mac_verify_accepts;
          QCheck_alcotest.to_alcotest
            (prop_mac_into_window "2EM" (Mac2em.mac mac_key) (Mac2em.mac_into mac_key));
          QCheck_alcotest.to_alcotest
            (prop_mac_into_window "AES" (MacAes.mac aes_mac_key)
               (MacAes.mac_into aes_mac_key));
        ] );
      ( "prf",
        [
          Alcotest.test_case "derivation" `Quick test_prf_derivation;
          Alcotest.test_case "label framing" `Quick test_prf_label_framing;
          Alcotest.test_case "int input" `Quick test_prf_int;
          Alcotest.test_case "known answer" `Quick test_prf_kat;
          Alcotest.test_case "allocation" `Quick test_prf_allocation;
        ] );
      ( "siphash",
        [
          Alcotest.test_case "reference vectors" `Quick test_siphash_reference_vectors;
          Alcotest.test_case "key sensitivity" `Quick test_siphash_key_sensitivity;
          Alcotest.test_case "hash32" `Quick test_siphash_hash32;
        ] );
    ]
