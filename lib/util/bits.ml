(* SWAR popcount on one 32-bit half: pair sums, nibble sums, then one
   multiply to fold the byte counts into the top byte. The final mask is
   needed because OCaml ints are wider than 32 bits, so the multiply's
   high bytes (dropped by overflow on real 32-bit registers) survive. *)
let pop32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  ((x * 0x01010101) lsr 24) land 0x3F

(* OCaml ints are 63-bit, so the 64-bit SWAR constants do not fit in a
   literal; split into two 32-bit halves instead. *)
let popcount x = pop32 (x land 0xFFFFFFFF) + pop32 ((x lsr 32) land 0x7FFFFFFF)

(* [m land -m] isolates the lowest set bit. Powers of two below 2^62
   differ mod 67, so the residue names the bit; bit 62 isolates to
   [min_int], which [land max_int] makes residue 0, the table's default. *)
let bit_of_residue = Array.make 67 62

let () = for i = 0 to 61 do bit_of_residue.((1 lsl i) mod 67) <- i done

let lowest_bit m =
  if m = 0 then invalid_arg "Bits.lowest_bit: zero mask";
  Array.unsafe_get bit_of_residue (((m land -m) land max_int) mod 67)
