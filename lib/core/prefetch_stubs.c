/* Prefetch hints for the shuffled Gibbs sweep (DESIGN.md section 2,
   "Memory"). OCaml has no prefetch primitive, so these [@@noalloc]
   externals issue __builtin_prefetch: on the lines an upcoming event
   will read in the arrays of an Event_store.view record, whose fields
   are, in order, departure (flat floats), observed, queue, pi,
   pi_inv, rho, rho_inv; and on one slot of an array, for the store's
   shuffle.

   Rules: never write, never allocate. Load an array slot only at an
   index checked against the array's length. Indices read from the
   mutable rho/rho_inv arrays (restored snapshots are not validated)
   serve only as prefetch addresses, computed without pointer
   overflow; a prefetch never faults and changes no value. */

#include <caml/mlvalues.h>

/* For the int arrays only: one field per slot. */
static inline int in_bounds(value a, intnat i)
{
  return (uintnat)i < Wosize_val(a);
}

/* Slot i of array a: a field holds one word, a flat float one double. */
static inline void prefetch_slot(value a, intnat i)
{
  uintnat size = Tag_val(a) == Double_array_tag ? sizeof(double) : sizeof(value);
  __builtin_prefetch((const void *)((uintnat)a + (uintnat)i * size));
}

/* Every view array at event f. */
CAMLprim value qnet_prefetch_event(value v, value vf)
{
  intnat f = Long_val(vf);
  for (int k = 0; k < 7; k++) prefetch_slot(Field(v, k), f);
  return Val_unit;
}

/* Departure and pi at rho(f), rho_inv(f), and at rho and rho_inv of
   f's task successor e = pi_inv(f): the lines the kernel reads beyond
   f's own. */
CAMLprim value qnet_prefetch_neighbours(value v, value vf)
{
  value d = Field(v, 0), pi = Field(v, 3), pi_inv = Field(v, 4);
  value rho = Field(v, 5), rho_inv = Field(v, 6);
  intnat f = Long_val(vf);
  if (!(in_bounds(rho, f) && in_bounds(rho_inv, f) && in_bounds(pi_inv, f))) return Val_unit;
  intnat near[4] = { Long_val(Field(rho, f)), Long_val(Field(rho_inv, f)), -1, -1 };
  intnat e = Long_val(Field(pi_inv, f));
  if (in_bounds(rho, e) && in_bounds(rho_inv, e)) {
    near[2] = Long_val(Field(rho, e));
    near[3] = Long_val(Field(rho_inv, e));
  }
  for (int k = 0; k < 4; k++) {
    prefetch_slot(d, near[k]);
    prefetch_slot(pi, near[k]);
  }
  return Val_unit;
}

/* Slot i of any array, for Event_store's draw-ahead shuffle. */
CAMLprim value qnet_prefetch_slot(value a, value vi)
{
  prefetch_slot(a, Long_val(vi));
  return Val_unit;
}
