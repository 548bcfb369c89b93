(* Tests for the OPT substrate: DRKey derivation, the 544-bit header
   layout implied by the paper's FN triples, and the
   source/router/destination tag chain. *)

open Dip_opt
module Bitbuf = Dip_bitbuf.Bitbuf

let g = Dip_stdext.Prng.create 1234L
let secrets n = List.init n (fun _ -> Drkey.secret_gen g)

let test_drkey_deterministic () =
  let s = Drkey.secret_of_string "router-secret-00" in
  Alcotest.(check string) "same session, same key"
    (Drkey.derive s ~session_id:7L)
    (Drkey.derive s ~session_id:7L);
  Alcotest.(check bool) "sessions separate" true
    (Drkey.derive s ~session_id:7L <> Drkey.derive s ~session_id:8L)

let test_drkey_secrets_separate () =
  let a = Drkey.secret_of_string "router-secret-00" in
  let b = Drkey.secret_of_string "router-secret-01" in
  Alcotest.(check bool) "routers derive different keys" true
    (Drkey.derive a ~session_id:7L <> Drkey.derive b ~session_id:7L)

let test_drkey_session_keys_order () =
  let ss = secrets 3 in
  let ks = Drkey.session_keys ss ~session_id:9L in
  Alcotest.(check int) "arity" 3 (List.length ks);
  List.iteri
    (fun i s ->
      Alcotest.(check string) "path order" (Drkey.derive s ~session_id:9L)
        (List.nth ks i))
    ss

let test_header_sizes () =
  (* hops=1 must give exactly 68 bytes = 544 bits, the F_ver span of
     the paper's key-9 triple, and the value that makes Table 2's
     OPT row equal 98. *)
  Alcotest.(check int) "one hop" 68 (Header.size_bytes ~hops:1);
  Alcotest.(check int) "one hop bits" 544 (Header.size_bits ~hops:1);
  Alcotest.(check int) "per extra hop" 16
    (Header.size_bytes ~hops:2 - Header.size_bytes ~hops:1)

let test_header_field_layout_matches_triples () =
  (* The FN triples of paper §3 pin the layout. *)
  let open Dip_bitbuf.Field in
  Alcotest.(check bool) "F_parm (128,128)" true
    (equal Header.session_id_field (v ~off_bits:128 ~len_bits:128));
  Alcotest.(check bool) "F_MAC (0,416)" true
    (equal Header.mac_span_field (v ~off_bits:0 ~len_bits:416));
  Alcotest.(check bool) "F_mark (288,128)" true
    (equal Header.pvf_field (v ~off_bits:288 ~len_bits:128));
  Alcotest.(check bool) "F_ver (0,544)" true
    (equal (Header.ver_span_field ~hops:1) (v ~off_bits:0 ~len_bits:544))

let test_header_accessors () =
  let buf = Bitbuf.create (Header.size_bytes ~hops:2) in
  Header.set_session_id buf ~base:0 0xDEADL;
  Header.set_timestamp buf ~base:0 123456l;
  Header.set_pvf buf ~base:0 (String.make 16 'P');
  Header.set_opv buf ~base:0 2 (String.make 16 'Q');
  Alcotest.(check int64) "session id" 0xDEADL (Header.get_session_id buf ~base:0);
  Alcotest.(check int32) "timestamp" 123456l (Header.get_timestamp buf ~base:0);
  Alcotest.(check string) "pvf" (String.make 16 'P') (Header.get_pvf buf ~base:0);
  Alcotest.(check string) "opv2" (String.make 16 'Q') (Header.get_opv buf ~base:0 2);
  Alcotest.(check string) "opv1 untouched" (String.make 16 '\000')
    (Header.get_opv buf ~base:0 1)

let test_header_accessors_at_base () =
  (* The same region embedded 30 bytes into a larger packet — the DIP
     FN-locations case. *)
  let buf = Bitbuf.create (30 + Header.size_bytes ~hops:1) in
  Header.set_session_id buf ~base:30 99L;
  Alcotest.(check int64) "offset region" 99L (Header.get_session_id buf ~base:30);
  Alcotest.(check int) "nothing before base" 0 (Bitbuf.get_uint8 buf 29)

let setup ?(alg = Protocol.EM2) ?(hops = 3) ?(payload = "the data") () =
  let path_secrets = secrets hops in
  let dst_secret = Drkey.secret_gen g in
  let session_id = 0x1122334455667788L in
  let session_keys = Drkey.session_keys path_secrets ~session_id in
  let dest_key = Drkey.derive dst_secret ~session_id in
  let buf = Bitbuf.create (Header.size_bytes ~hops) in
  Protocol.source_init ~alg buf ~base:0 ~hops ~session_id ~timestamp:42l
    ~dest_key ~payload;
  (buf, session_keys, dest_key)

let run_routers ?(alg = Protocol.EM2) buf session_keys =
  List.iteri
    (fun i key -> Protocol.router_update ~alg buf ~base:0 ~hop:(i + 1) ~key)
    session_keys

let test_opt_valid_chain () =
  let payload = "the data" in
  let buf, session_keys, dest_key = setup ~payload () in
  run_routers buf session_keys;
  match
    Protocol.verify buf ~base:0 ~hops:3 ~session_keys ~dest_key
      ~payload:(Some payload)
  with
  | Ok () -> ()
  | Error f -> Alcotest.failf "valid chain rejected: %a" Protocol.pp_failure f

let test_opt_detects_payload_tamper () =
  let buf, session_keys, dest_key = setup ~payload:"genuine" () in
  run_routers buf session_keys;
  match
    Protocol.verify buf ~base:0 ~hops:3 ~session_keys ~dest_key
      ~payload:(Some "tampered")
  with
  | Error Protocol.Bad_data_hash -> ()
  | _ -> Alcotest.fail "tampered payload must fail the data hash"

let test_opt_detects_skipped_router () =
  (* A path that skips router 2 (source validation of the path). *)
  let buf, session_keys, dest_key = setup () in
  (match session_keys with
  | [ k1; _; k3 ] ->
      Protocol.router_update buf ~base:0 ~hop:1 ~key:k1;
      Protocol.router_update buf ~base:0 ~hop:3 ~key:k3
  | _ -> assert false);
  match Protocol.verify buf ~base:0 ~hops:3 ~session_keys ~dest_key ~payload:None with
  | Error (Protocol.Bad_opv 2) -> ()
  | Error f -> Alcotest.failf "unexpected failure: %a" Protocol.pp_failure f
  | Ok () -> Alcotest.fail "skipped router must be detected"

let test_opt_detects_wrong_router_key () =
  (* An off-path router (wrong key) performs hop 2's update. *)
  let buf, session_keys, dest_key = setup () in
  let rogue = Drkey.derive (Drkey.secret_gen g) ~session_id:1L in
  (match session_keys with
  | [ k1; _; k3 ] ->
      Protocol.router_update buf ~base:0 ~hop:1 ~key:k1;
      Protocol.router_update buf ~base:0 ~hop:2 ~key:rogue;
      Protocol.router_update buf ~base:0 ~hop:3 ~key:k3
  | _ -> assert false);
  match Protocol.verify buf ~base:0 ~hops:3 ~session_keys ~dest_key ~payload:None with
  | Error (Protocol.Bad_opv 2 | Protocol.Bad_opv 3 | Protocol.Bad_pvf) -> ()
  | Error Protocol.Bad_data_hash -> Alcotest.fail "wrong failure"
  | Error (Protocol.Bad_opv _) -> ()
  | Ok () -> Alcotest.fail "off-path router must be detected"

let test_opt_detects_reordered_path () =
  (* Routers 1 and 2 swap their updates: order must matter. *)
  let buf, session_keys, dest_key = setup () in
  (match session_keys with
  | [ k1; k2; k3 ] ->
      Protocol.router_update buf ~base:0 ~hop:1 ~key:k2;
      Protocol.router_update buf ~base:0 ~hop:2 ~key:k1;
      Protocol.router_update buf ~base:0 ~hop:3 ~key:k3
  | _ -> assert false);
  match Protocol.verify buf ~base:0 ~hops:3 ~session_keys ~dest_key ~payload:None with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "path reordering must be detected"

let test_opt_detects_tag_corruption () =
  let buf, session_keys, dest_key = setup () in
  run_routers buf session_keys;
  (* Flip one bit of OPV 2. *)
  let opv = Bytes.of_string (Header.get_opv buf ~base:0 2) in
  Bytes.set opv 5 (Char.chr (Char.code (Bytes.get opv 5) lxor 0x80));
  Header.set_opv buf ~base:0 2 (Bytes.to_string opv);
  match Protocol.verify buf ~base:0 ~hops:3 ~session_keys ~dest_key ~payload:None with
  | Error (Protocol.Bad_opv 2) -> ()
  | _ -> Alcotest.fail "corrupted OPV must be pinpointed"

let test_opt_single_hop_paper_config () =
  (* "we use one hop for evaluation" (§4.1). *)
  let buf, session_keys, dest_key = setup ~hops:1 ~payload:"p" () in
  run_routers buf session_keys;
  Alcotest.(check int) "wire size" 68 (Bitbuf.length buf);
  match
    Protocol.verify buf ~base:0 ~hops:1 ~session_keys ~dest_key ~payload:(Some "p")
  with
  | Ok () -> ()
  | Error f -> Alcotest.failf "1-hop chain rejected: %a" Protocol.pp_failure f

let test_opt_aes_variant () =
  (* The AES ablation (§4.1's resubmit discussion) must be a working
     cipher swap: valid chains verify, cross-cipher chains do not. *)
  let payload = "x" in
  let buf, session_keys, dest_key = setup ~alg:Protocol.AES ~payload () in
  run_routers ~alg:Protocol.AES buf session_keys;
  (match
     Protocol.verify ~alg:Protocol.AES buf ~base:0 ~hops:3 ~session_keys
       ~dest_key ~payload:(Some payload)
   with
  | Ok () -> ()
  | Error f -> Alcotest.failf "AES chain rejected: %a" Protocol.pp_failure f);
  match
    Protocol.verify ~alg:Protocol.EM2 buf ~base:0 ~hops:3 ~session_keys
      ~dest_key ~payload:None
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "cipher mismatch must not verify"

let test_opt_verify_arity_guard () =
  let buf, session_keys, dest_key = setup () in
  run_routers buf session_keys;
  Alcotest.(check bool) "key arity enforced" true
    (try
       ignore
         (Protocol.verify buf ~base:0 ~hops:3
            ~session_keys:(List.tl session_keys) ~dest_key ~payload:None);
       false
     with Invalid_argument _ -> true)

(* Known-answer vectors, pinned so that a rewrite of the MAC path must
   keep every tag and every byte of a chain bit-identical. *)
let kat_msg n = String.init n (fun i -> Char.chr (((37 * i) + 11) land 0xff))

let mac_kats =
  [
    (0, "46333a58983694b5330dcee8b3d2408e", "557b7bcee08506a60206c53390bcf6ae");
    (1, "0721678ff6ea40f96629fd43b9b7f662", "1551ebce28d87120caf4d9e9f5cc7a7e");
    (15, "b0b7f4a1629411feec2a09aa35adcbd1", "f4e6258030886874bfdedf7a0313824c");
    (16, "6df1c5a6d9d13058d09b0cdcdba398d9", "280565dea615aa20317489e222ed66f6");
    (17, "fe90d639f94067589ecf3413981d3d3e", "15f816865b1e914f3a05857459801bfa");
    (31, "873e79e43305a61b2b5ec94601fea436", "344b6187a9408e5b19992cdabac9ef4a");
    (32, "0bce11dd8fcdff90ec85b0e344f1ff3c", "eb6dc7f028dab6444651c4a605082a6b");
    (52, "232fccc7dfd789f796e2ac27eae518b2", "7b35414c14485306e23cba830a0357c6");
    (100, "07e6a692dd1725a5866c15e7ac3f5ac1", "15a40241d494f82960a843d3b319c10b");
  ]

let test_mac_known_answers () =
  List.iter
    (fun (n, em2, aes) ->
      let tag alg =
        Dip_stdext.Hex.encode (Protocol.mac ~alg ~key:"opt-data-hash-k0" (kat_msg n))
      in
      Alcotest.(check string) (Printf.sprintf "2EM, %d B" n) em2 (tag Protocol.EM2);
      Alcotest.(check string) (Printf.sprintf "AES, %d B" n) aes (tag Protocol.AES))
    mac_kats

(* A 3-hop source_init + router_update chain in a region 7 bytes into
   the buffer, with 5 trailing bytes that must stay zero. *)
let kat_chain alg =
  let hops = 3 in
  let buf = Bitbuf.create (7 + Header.size_bytes ~hops + 5) in
  Protocol.source_init ~alg buf ~base:7 ~hops ~session_id:0x1122334455667788L
    ~timestamp:42l ~dest_key:"dest-session-key" ~payload:"the data";
  for hop = 1 to hops do
    Protocol.router_update ~alg buf ~base:7 ~hop
      ~key:(Printf.sprintf "hop-session-key%d" (hop - 1))
  done;
  Dip_stdext.Hex.encode (Bitbuf.to_string buf)

let test_chain_known_answers () =
  Alcotest.(check string) "2EM chain"
    "00000000000000dcb021286bfa504cc81427af7ac8d478000000000000000011223344556677880000002a0cb1efe5043b00e0a8760ca8e859fa643e15ae3bf81c8606a18916bd12225bd9801fdff00b35795a23366ec58159b29d286870e6c4c7bfe2fd1729c60ff48a510000000000"
    (kat_chain Protocol.EM2);
  Alcotest.(check string) "AES chain"
    "00000000000000dcb021286bfa504cc81427af7ac8d478000000000000000011223344556677880000002a0e8242b6c1f30be310ca798c889176ee682bf1c553e52cf8872585fdff4ab86412ed411ffeb24c19e7da63482cf0d8cf276912dfb1fdc04079ed2b7af2815c680000000000"
    (kat_chain Protocol.AES)

(* Allocation gates: the 2EM router path runs in place on the packet,
   so a call allocates only its per-call chaining block, key schedule
   and optional-argument box, not a copy of the span or the tag. *)
let words_per_call f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do f () done;
  (Gc.minor_words () -. w0) /. 1000.

let check_words what limit w =
  if w > limit then Alcotest.failf "%s: %.1f words/call (gate %.0f)" what w limit

let test_router_path_allocation () =
  let buf, session_keys, _ = setup ~hops:1 () in
  let key = List.hd session_keys in
  check_words "mac_update" 32.
    (words_per_call (fun () -> Protocol.mac_update ~alg:Protocol.EM2 buf ~base:0 ~hop:1 ~key));
  check_words "mark_update" 32.
    (words_per_call (fun () -> Protocol.mark_update ~alg:Protocol.EM2 buf ~base:0 ~key));
  let m = kat_msg 52 in
  check_words "mac (52 B)" 32.
    (words_per_call (fun () -> ignore (Sys.opaque_identity (Protocol.mac ~key m))))

let prop_opt_random_corruption_detected =
  QCheck.Test.make ~name:"opt: any single-byte corruption of the region is caught"
    ~count:100
    QCheck.(int_range 0 67)
    (fun pos ->
      let payload = "payload" in
      let buf, session_keys, dest_key = setup ~hops:1 ~payload () in
      run_routers buf session_keys;
      let before = Bitbuf.get_uint8 buf pos in
      Bitbuf.set_uint8 buf pos (before lxor 0x01);
      match
        Protocol.verify buf ~base:0 ~hops:1 ~session_keys ~dest_key
          ~payload:(Some payload)
      with
      | Error _ -> true
      | Ok () -> false)

let () =
  Alcotest.run "opt"
    [
      ( "drkey",
        [
          Alcotest.test_case "deterministic" `Quick test_drkey_deterministic;
          Alcotest.test_case "secrets separate" `Quick test_drkey_secrets_separate;
          Alcotest.test_case "session keys order" `Quick test_drkey_session_keys_order;
        ] );
      ( "header",
        [
          Alcotest.test_case "sizes" `Quick test_header_sizes;
          Alcotest.test_case "layout matches FN triples" `Quick
            test_header_field_layout_matches_triples;
          Alcotest.test_case "accessors" `Quick test_header_accessors;
          Alcotest.test_case "accessors at base" `Quick test_header_accessors_at_base;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "valid chain" `Quick test_opt_valid_chain;
          Alcotest.test_case "payload tamper" `Quick test_opt_detects_payload_tamper;
          Alcotest.test_case "skipped router" `Quick test_opt_detects_skipped_router;
          Alcotest.test_case "wrong router key" `Quick test_opt_detects_wrong_router_key;
          Alcotest.test_case "reordered path" `Quick test_opt_detects_reordered_path;
          Alcotest.test_case "tag corruption" `Quick test_opt_detects_tag_corruption;
          Alcotest.test_case "single hop (paper config)" `Quick
            test_opt_single_hop_paper_config;
          Alcotest.test_case "AES variant" `Quick test_opt_aes_variant;
          Alcotest.test_case "verify arity guard" `Quick test_opt_verify_arity_guard;
          Alcotest.test_case "mac known answers" `Quick test_mac_known_answers;
          Alcotest.test_case "chain known answers" `Quick test_chain_known_answers;
          Alcotest.test_case "router path allocation" `Quick test_router_path_allocation;
          QCheck_alcotest.to_alcotest prop_opt_random_corruption_detected;
        ] );
    ]
