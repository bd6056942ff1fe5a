	.section .note.GNU-stack,"",@progbits
	.text
	.globl golden_gemm_u
	.type golden_gemm_u, @function
	.p2align 4
golden_gemm_u:
	push	%r12
	push	%r13
	push	%r14
	push	%r15
	push	%rbp
	push	%rbx
	sub	$96, %rsp
	mov	%rdi, (%rsp)	# arg Mc
	mov	%rsi, 8(%rsp)	# arg Nc
	mov	%rdx, 16(%rsp)	# arg Kc
	mov	%rcx, 24(%rsp)	# arg A
	mov	%r8, 32(%rsp)	# arg B
	mov	%r9, 40(%rsp)	# arg C
	mov	152(%rsp), %rax	# stack arg LDC
	mov	%rax, 48(%rsp)
	mov	(%rsp), %rbx	# home Mc
	mov	16(%rsp), %r10	# home Kc
	mov	24(%rsp), %r14	# home A
	mov	32(%rsp), %r13	# home B
	mov	48(%rsp), %r15	# home LDC
	mov	$0, %r12
	jmp	.LBL0
.LBL1:
	mov	%r12, %rax
	imul	%r15, %rax
	mov	40(%rsp), %rcx
	lea	(%rcx,%rax,8), %rcx
	mov	%r12, %rax
	imul	%r15, %rax
	mov	40(%rsp), %r8
	add	%r15, %rax
	lea	(%r8,%rax,8), %r8
	mov	$0, %rbp
	jmp	.LBL2
.LBL3:
	mov	%r14, %rdi
	mov	%rbp, %rax
	lea	(%rdi,%rax,8), %rdi
	mov	%r12, %rax
	imul	%r10, %rax
	mov	%r13, %rsi
	lea	(%rsi,%rax,8), %rsi
	mov	%r12, %rax
	imul	%r10, %rax
	mov	%r13, %rdx
	add	%r10, %rax
	vxorpd	%xmm8, %xmm8, %xmm8
	vxorpd	%xmm9, %xmm9, %xmm9
	lea	(%rdx,%rax,8), %rdx
	mov	$0, %r9
	jmp	.LBL4
.LBL5:
	# --- mmUnrolledCOMP ---
	vmovupd	(%rdi), %zmm0	# Vld ptr_A0[0..7]
	vbroadcastsd	(%rsi), %zmm4	# Vdup ptr_B0[0]
	vbroadcastsd	(%rdx), %zmm5	# Vdup ptr_B1[0]
	vfmadd231pd	%zmm0, %zmm4, %zmm8	# acc(res_u0_u0..) += A*ptr_B0[0]
	vfmadd231pd	%zmm0, %zmm5, %zmm9	# acc(res_u1_u0..) += A*ptr_B1[0]
	add	$8, %rsi	# ptr_B0 += 1
	mov	%rbx, %rax
	add	$8, %rdx	# ptr_B1 += 1
	lea	(%rdi,%rax,8), %rdi	# ptr_A0 += ...
	add	$1, %r9
.LBL4:
	cmp	%r10, %r9
	jl	.LBL5
	# --- mmUnrolledSTORE ---
	vmovupd	(%rcx), %zmm10	# Vld ptr_C0[0..7]
	vaddpd	%zmm8, %zmm10, %zmm10
	vmovupd	%zmm10, (%rcx)	# Vst ptr_C0[0..7]
	# --- mmUnrolledSTORE ---
	vmovupd	(%r8), %zmm11	# Vld ptr_C1[0..7]
	vaddpd	%zmm9, %zmm11, %zmm11
	vmovupd	%zmm11, (%r8)	# Vst ptr_C1[0..7]
	add	$64, %rcx	# ptr_C0 += 8
	add	$64, %r8	# ptr_C1 += 8
	add	$8, %rbp
.LBL2:
	cmp	%rbx, %rbp
	jl	.LBL3
	add	$2, %r12
.LBL0:
	mov	8(%rsp), %rax
	cmp	%rax, %r12
	jl	.LBL1
	add	$96, %rsp
	pop	%rbx
	pop	%rbp
	pop	%r15
	pop	%r14
	pop	%r13
	vzeroupper
	pop	%r12
	ret
	.size golden_gemm_u, .-golden_gemm_u
