(** Common signature for 128-bit block ciphers.

    The DIP prototype's MAC operation ({i F_MAC}, key 7) is built on a
    block cipher. The paper uses 2EM [Bogdanov et al. 2012] because it
    completes in a single Tofino pass, and mentions AES as the
    alternative that needs a packet resubmission (§4.1). Both live
    behind this signature so the benchmark harness can swap them. *)

module type S = sig
  val name : string

  val block_size : int
  (** Block size in bytes (16 for every cipher here). *)

  val key_size : int
  (** Expected key length in bytes. *)

  val passes : int
  (** How many PISA pipeline passes one block operation costs on the
      modelled switch: 1 for 2EM, >1 for AES (resubmission, §4.1).
      The {!Dip_pisa} cost model reads this. *)

  type key

  val expand_key : string -> key
  (** [expand_key raw] precomputes the key schedule. Raises
      [Invalid_argument] if [String.length raw <> key_size]. *)

  val encrypt_into : key -> bytes -> int -> unit
  (** [encrypt_into k buf off] enciphers the [block_size] bytes at
      [off] in place. This is the primitive {!Cbc_mac} chains; 2EM
      runs it without allocating. Raises [Invalid_argument] if the
      block does not fit in [buf]. *)

  val encrypt_block : key -> string -> string
  (** [encrypt_block k block] enciphers exactly [block_size] bytes
      (a wrapper over {!encrypt_into}). Raises [Invalid_argument] on
      a wrong-sized block. *)

  val decrypt_block : key -> string -> string
  (** Inverse of {!encrypt_block}. *)
end
