module type S = sig
  val name : string
  val block_size : int
  val key_size : int
  val passes : int

  type key

  val expand_key : string -> key
  val encrypt_into : key -> bytes -> int -> unit
  val encrypt_block : key -> string -> string
  val decrypt_block : key -> string -> string
end
