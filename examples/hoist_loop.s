; Hand-written guest kernel: a counted loop that sums seven words of one
; array, with a store to another array ahead of the loads — the canonical
; SMARQ hoisting opportunity. The store's base arrives through memory (as
; an array a caller passes by reference), so no static range analysis can
; prove it apart from the loads. The dynamic optimizer speculates all seven
; loads above the store under alias-register protection; on the 8-register
; file that leaves one register spare, which `smarq lint examples/`
; reports as an `overflow-risk` warning while it statically verifies the
; translations this program produces. `smarq lint examples/ --nospec
; 0x1000..0x1008` proves the same program with speculation on the first
; load's address range suppressed.
.word 0x800, 8192
b0:
    iconst r1, 0
    iconst r2, 400
    iconst r3, 4096
    ld r5, [r0+0x800]
    jump b1
b1:
    st r1, [r5+0]
    ld r4, [r3+0]
    ld r6, [r3+8]
    ld r7, [r3+16]
    ld r8, [r3+24]
    ld r9, [r3+32]
    ld r10, [r3+40]
    ld r11, [r3+48]
    add r4, r4, r6
    add r7, r7, r8
    add r9, r9, r10
    add r4, r4, r7
    add r9, r9, r11
    add r4, r4, r9
    add r4, r4, r1
    st r4, [r3+0]
    addi r1, r1, 1
    blt r1, r2, b1, b2
b2:
    halt
