# Request loop over four tenants. Each request reads a 16-byte plain
# request and a 16-byte sensitive record, draws an 8-byte getrandom()
# nonce, and writes one 40-byte reply: the request in plaintext, then
# the record and the nonce, which leave as at-rest ciphertext. The
# reply buffer sits at one fixed address, so every request reuses the
# same cipher tweaks. After each reply the server switches to the next
# tenant's key with thread_switch. Request i names tenant i mod 4 in
# its sixth byte ("GET /t<n> ..."); the server exits 1 on a request that
# names another tenant, and 0 at the end of "requests".

    .text
_start:
    li   a0, -100
    la   a1, req_path
    li   a2, 0
    li   a7, 56
    ecall
    mv   s0, a0

    li   a0, -100
    la   a1, rec_path
    li   a2, 0x02000000    # O_SENSITIVE
    li   a7, 56
    ecall
    mv   s1, a0

    li   s2, 0             # tenant
    li   s3, 4             # tenants
    la   s4, reply

serve:
    mv   a0, s0
    mv   a1, s4
    li   a2, 16
    li   a7, 63
    ecall
    beq  a0, zero, finish

    ld   t0, 0(s4)
    srli t0, t0, 48
    andi t0, t0, 0xff      # the tenant digit
    addi t1, s2, 48        # '0' + current tenant
    bne  t0, t1, misrouted

    mv   a0, s1
    addi a1, s4, 16
    li   a2, 16
    li   a7, 63
    ecall

    addi a0, s4, 32
    li   a1, 8
    li   a2, 0
    li   a7, 278
    ecall

    li   a0, 1
    mv   a1, s4
    li   a2, 40
    li   a7, 64
    ecall

    addi s2, s2, 1
    bltu s2, s3, switch
    li   s2, 0
switch:
    mv   a0, s2
    li   a7, 5000
    ecall
    j    serve

finish:
    li   a0, 0
    li   a7, 93
    ecall
misrouted:
    li   a0, 1
    li   a7, 93
    ecall

    .data
req_path:
    .asciz "requests"
rec_path:
    .asciz "records"
    .align 6
reply:
    .dword 0
    .dword 0
    .dword 0
    .dword 0
    .dword 0
