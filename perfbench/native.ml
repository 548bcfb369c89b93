(* The native IPv4 reference of Figure 2: a wire buffer readied for
   [Dip_ip.Ipv4.forward] with a given destination, TTL restored and the
   header checksum recomputed (the forward validates it). *)

module Bitbuf = Dip_bitbuf.Bitbuf

let packet ~size =
  let payload = String.make (size - Dip_ip.Ipv4.header_size) 'x' in
  Dip_ip.Ipv4.encode
    { Dip_ip.Ipv4.src = Dip_tables.Ipaddr.V4.of_string "192.0.2.1"; dst = 0l;
      ttl = 64; protocol = 17; payload_len = String.length payload }
    ~payload

let fill b dst =
  Bitbuf.set_uint32 b 16 (Int32.of_int dst);
  Bitbuf.set_uint8 b 8 64;
  Bitbuf.set_uint16 b 10 0;
  let sum = ref 0 in
  for i = 0 to 9 do
    sum := !sum + Bitbuf.get_uint16 b (2 * i)
  done;
  let s = (!sum land 0xFFFF) + (!sum lsr 16) in
  let s = (s land 0xFFFF) + (s lsr 16) in
  Bitbuf.set_uint16 b 10 (lnot s land 0xFFFF);
  b

(* A ring of batch-size buffers, like the DIP ring of each workload. *)
let ring ~size = Array.init Harness.batch_size (fun _ -> packet ~size)
let slot ring i = ring.(i land (Harness.batch_size - 1))
